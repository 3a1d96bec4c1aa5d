package main

import (
	"reflect"
	"testing"
)

// TestScanRequests feeds the request scanner an IBP stream cut at every
// possible place: request lines must be counted once each whatever the
// Write boundaries, and a STORE's payload must be passed over, not parsed.
func TestScanRequests(t *testing.T) {
	stream := "PIPELINE 0\n" +
		"LOAD rcap 0 65536 tag=1\n" +
		"STORE wcap 0 12 tag=2\nLOAD x 0 9\n\n" + // the payload looks like a request
		"ALLOCATE 26624 60000 volatile\n" +
		"COPY rcap 0 26624 127.0.0.1:1 wcap 0\n" +
		"PROBE mcap tag=3\n" +
		"LOAD rcap 128 26000 tag=4 deadline=5\n"
	want := map[string]int{
		"PIPELINE 0": 1, "LOAD 65536": 1, "STORE 12": 1, "ALLOCATE 26624": 1,
		"COPY 26624": 1, "PROBE 0": 1, "LOAD 26000": 1,
	}
	for cut := 0; cut <= len(stream); cut++ {
		rec := newRecorder()
		c := &meterConn{rec: rec}
		c.scanRequests([]byte(stream[:cut]))
		c.scanRequests([]byte(stream[cut:]))
		if _, _, got := rec.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("stream cut at byte %d: counted %v, want %v", cut, got, want)
		}
	}
}
