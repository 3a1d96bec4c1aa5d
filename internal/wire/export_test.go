package wire

// Served is how many accepted connections s is serving, for this
// package's external tests.
func Served(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
