package obs

// PeerClient: the one way this process fetches observability documents
// from another process's -metrics-addr endpoint.
//
// Every cross-process observability pull — the Collector's trace merge,
// the fleet scraper's /metrics and /debug/alerts sweeps, every lftop
// pane — shares the
// same failure modes: a peer that is down, a peer that is slow, and a
// peer that answers garbage. PeerClient centralizes the defenses (a
// bounded per-request deadline layered on the caller's context, a body
// size limit, address normalization) so callers fan out freely without
// one hung peer stalling the rest.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// DefaultPeerTimeout bounds one peer request when PeerClient.Timeout is
// unset. It is deliberately short: observability pulls are advisory, and
// a peer that cannot answer in two seconds is better reported down than
// waited out.
const DefaultPeerTimeout = 2 * time.Second

// defaultPeerBodyLimit caps how much of a peer response is read (8 MiB —
// generous for any metrics or trace export this stack produces).
const defaultPeerBodyLimit = 8 << 20

// PeerClient fetches JSON documents from peer observability endpoints
// with a bounded per-request deadline. The zero value is usable.
type PeerClient struct {
	// HTTP is the underlying client; nil means a shared default with no
	// client-level timeout (the per-request deadline below bounds calls).
	HTTP *http.Client
	// Timeout bounds each request, layered on (never extending) the
	// caller's context. Zero means DefaultPeerTimeout.
	Timeout time.Duration
	// MaxBody caps the response size read (default 8 MiB).
	MaxBody int64
}

// PeerBaseURL normalizes a peer address ("host:port" or a full URL) into
// a base URL with no trailing slash.
func PeerBaseURL(peer string) string {
	base := peer
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimSuffix(base, "/")
}

func (p *PeerClient) httpClient() *http.Client {
	if p != nil && p.HTTP != nil {
		return p.HTTP
	}
	return http.DefaultClient
}

func (p *PeerClient) timeout() time.Duration {
	if p != nil && p.Timeout > 0 {
		return p.Timeout
	}
	return DefaultPeerTimeout
}

func (p *PeerClient) maxBody() int64 {
	if p != nil && p.MaxBody > 0 {
		return p.MaxBody
	}
	return defaultPeerBodyLimit
}

// Get fetches peer+path (with optional query) under the per-request
// deadline and returns the status code and body. A transport failure
// returns status 0. Non-2xx responses are returned, not errors: /healthz
// answering 503 is a successful fetch of a degraded peer.
func (p *PeerClient) Get(ctx context.Context, peer, path string, query url.Values) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout())
	defer cancel()
	u := PeerBaseURL(peer) + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := p.httpClient().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, p.maxBody()))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, body, nil
}

// GetJSON fetches peer+path and decodes the body into out. Non-200
// statuses and undecodable bodies are errors.
func (p *PeerClient) GetJSON(ctx context.Context, peer, path string, query url.Values, out any) error {
	status, body, err := p.Get(ctx, peer, path, query)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s%s: status %d", peer, path, status)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s%s: decoding: %w", peer, path, err)
	}
	return nil
}
