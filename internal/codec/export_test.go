package codec

import "io"

// Inflate decodes the zlib stream at the start of in into dst the way a
// Reader does, holding it to end there, and returns the number of bytes of
// in the stream took up.
func Inflate(in, dst []byte) (int, error) {
	sb := NewStreamBuffer(in)
	sb.Advance(int64(len(in)))
	sb.Fail(io.EOF)
	z := getInflater(sb.Reader(), dst)
	defer putInflater(z)
	err := z.run(len(dst), false)
	if err == nil {
		err = z.run(len(dst), true)
	}
	if err != nil {
		return 0, err
	}
	return z.src.pos - int(z.nb/8), nil
}
