package codec

import (
	"bytes"
	"math/rand"
	"testing"
)

// copyMatch writes what a byte-by-byte copy writes, for every distance and
// length deflate allows near the start of the output, in the middle, and
// against the end of the destination, and nothing in front of out.
func TestCopyMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{40, 300, 1000} {
		for d := 1; d <= 300 && d < size; d++ {
			for _, length := range []int{3, 4, 7, 8, 9, 15, 16, 17, 31, 258} {
				for _, out := range []int{d, d + 1, size/2 + d, size - length} {
					if out < d || out+length > size {
						continue
					}
					want := make([]byte, size)
					rng.Read(want[:out])
					got := bytes.Clone(want)
					for i := out; i < out+length; i++ {
						want[i] = want[i-d]
					}
					if end := copyMatch(got, out, out+length, d); end != out+length {
						t.Fatalf("size %d d %d length %d out %d: returned %d", size, d, length, out, end)
					}
					if !bytes.Equal(got[:out+length], want[:out+length]) {
						t.Fatalf("size %d d %d length %d out %d: wrong bytes", size, d, length, out)
					}
				}
			}
		}
	}
}
