// multiclient: one client agent serving several clients at once (paper
// section 3.5: "A client agent can serve multiple clients, especially in
// a mobile environment"). Three remote clients connect to the same agent
// over its TCP protocol and browse concurrently; the shared cache means
// later clients hit view sets the first one already pulled across the
// WAN.
//
// Run with:
//
//	go run ./examples/multiclient
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/experiments"
	"lonviz/internal/session"
)

func main() {
	cfg := experiments.DefaultConfig()
	cfg.Accesses = 12

	fmt.Println("multiclient: deploying the WAN case and exposing the client agent over TCP...")
	d, err := experiments.Deploy(context.Background(), cfg, 50, experiments.Case2WAN)
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	srv, err := agent.NewClientAgentServer(d.CA, "neghip")
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("multiclient: client agent on %s\n", addr)

	var wg sync.WaitGroup
	type result struct {
		name   string
		counts map[agent.AccessClass]int
		mean   float64
	}
	results := make([]result, 3)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := &agent.RemoteSource{Addr: addr, Dataset: "neghip"}
			defer src.CloseIdle()
			viewer, err := agent.NewViewer(d.Params, src)
			if err != nil {
				log.Printf("client %d: %v", c, err)
				return
			}
			viewer.MaxDecoded = 1
			// Clients start staggered and share most of the path (same
			// seed base) so the cache sharing shows.
			time.Sleep(time.Duration(c) * 300 * time.Millisecond)
			script, err := session.StandardScript(d.Params, cfg.Accesses, cfg.Seed)
			if err != nil {
				log.Printf("client %d: %v", c, err)
				return
			}
			recs, err := session.Run(context.Background(), viewer, script,
				session.RunOptions{ThinkTime: 60 * time.Millisecond})
			if err != nil {
				log.Printf("client %d: session: %v", c, err)
				return
			}
			var mean float64
			for _, s := range session.TotalSeconds(recs) {
				mean += s
			}
			mean /= float64(len(recs))
			results[c] = result{
				name:   fmt.Sprintf("client %d", c),
				counts: session.ClassCounts(recs),
				mean:   mean,
			}
		}(c)
	}
	wg.Wait()

	fmt.Printf("\n%-10s %-12s %-40s\n", "client", "mean (s)", "access classes")
	for _, r := range results {
		if r.counts == nil {
			continue
		}
		fmt.Printf("%-10s %-12.4f %v\n", r.name, r.mean, r.counts)
	}
	st := d.CA.Stats()
	fmt.Printf("\nmulticlient: shared agent stats: %+v\n", st)
	fmt.Println("multiclient: later clients ride the first client's WAN fetches (hits at the shared agent).")
}
