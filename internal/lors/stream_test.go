package lors

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"lonviz/internal/ibp"
)

func TestDownloadIntoPrefixCallback(t *testing.T) {
	depots := depotFarm(t, 2, 1<<22)
	data := testPayload(256*1024, 7)
	ex, err := Upload(context.Background(), "obj", data, UploadOptions{
		Depots:     depots,
		StripeSize: 64 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(data))
	var mu sync.Mutex
	var prefixes []int64
	_, err = DownloadInto(context.Background(), ex, dst, DownloadOptions{
		OnPrefix: func(n int64) {
			mu.Lock()
			prefixes = append(prefixes, n)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("payload mismatch")
	}
	if len(prefixes) == 0 {
		t.Fatal("OnPrefix never fired")
	}
	for i := 1; i < len(prefixes); i++ {
		if prefixes[i] <= prefixes[i-1] {
			t.Fatalf("prefixes not strictly increasing: %v", prefixes)
		}
	}
	if prefixes[len(prefixes)-1] != int64(len(data)) {
		t.Fatalf("final prefix = %d, want %d", prefixes[len(prefixes)-1], len(data))
	}
}

func TestDownloadIntoWrongLength(t *testing.T) {
	depots := depotFarm(t, 1, 1<<20)
	data := testPayload(4096, 3)
	ex, err := Upload(context.Background(), "obj", data, UploadOptions{Depots: depots})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DownloadInto(context.Background(), ex, make([]byte, 17), DownloadOptions{}); err == nil {
		t.Fatal("short destination accepted")
	}
}

// TestDownloadPipelinedPool proves the whole lors path works over a
// shared pipelined connection pool, including replica racing with pooled
// scratch buffers.
func TestDownloadPipelinedPool(t *testing.T) {
	depots := depotFarm(t, 3, 1<<22)
	data := testPayload(300*1024, 11)
	ex, err := Upload(context.Background(), "obj", data, UploadOptions{
		Depots:     depots,
		StripeSize: 64 * 1024,
		Replicas:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := &ibp.PipePool{}
	defer pool.Close()
	for _, race := range []bool{false, true} {
		got, _, err := Download(context.Background(), ex, DownloadOptions{
			Pipes:        pool,
			RaceReplicas: race,
		})
		if err != nil {
			t.Fatalf("race=%v: %v", race, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("race=%v: payload mismatch", race)
		}
	}
	for _, d := range depots {
		if pool.Mode(d) == "serial" {
			t.Fatalf("depot %s fell back to serial", d)
		}
	}
}
