package codec

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

func TestStreamBufferReadFollowsAdvance(t *testing.T) {
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = byte(i)
	}
	sb := NewStreamBuffer(buf)
	r := sb.Reader()

	sb.Advance(10)
	got := make([]byte, 4)
	if n, err := r.Read(got); n != 4 || err != nil {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(got, buf[:4]) {
		t.Fatal("wrong bytes")
	}

	// A read past the prefix blocks until Advance publishes more.
	done := make(chan struct{})
	rest := make([]byte, 200)
	var total int
	go func() {
		defer close(done)
		pos := 4
		for {
			n, err := r.Read(rest[total:])
			total += n
			pos += n
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
		}
	}()
	sb.Advance(50)
	sb.Advance(100)
	<-done
	if total != 96 {
		t.Fatalf("read %d bytes after pos 4, want 96", total)
	}
	if !bytes.Equal(rest[:96], buf[4:]) {
		t.Fatal("streamed bytes mismatch")
	}
}

func TestStreamBufferFailUnblocksReaders(t *testing.T) {
	sb := NewStreamBuffer(make([]byte, 64))
	r := sb.Reader()
	boom := errors.New("boom")
	var wg sync.WaitGroup
	wg.Add(1)
	var got error
	go func() {
		defer wg.Done()
		_, got = r.Read(make([]byte, 8))
	}()
	sb.Fail(boom)
	wg.Wait()
	if !errors.Is(got, boom) {
		t.Fatalf("read error = %v, want boom", got)
	}
}
