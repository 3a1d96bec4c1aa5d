package codec

import (
	"bytes"
	"math/rand"
	"testing"
)

// benchPayload is the size of a marshalled view set of the repository
// benchmark's database (36 masked 100² views), filled with a slowly varying
// signal so deflate does real matching work.
func benchPayload() []byte {
	data := make([]byte, 849_000)
	rng := rand.New(rand.NewSource(1))
	v := byte(0)
	for i := range data {
		if rng.Intn(4) == 0 {
			v += byte(rng.Intn(3)) - 1
		}
		data[i] = v
	}
	return data
}

var benchSink []byte

func BenchmarkCompress(b *testing.B) {
	data := benchPayload()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := Compress(data, DefaultCompression)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = frame
	}
}

func BenchmarkDecompressFrom(b *testing.B) {
	data := benchPayload()
	frame, err := Compress(data, DefaultCompression)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecompressFrom(bytes.NewReader(frame))
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}
