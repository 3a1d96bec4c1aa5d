// Command lboned runs the Logistical Backbone directory: depots register
// and heartbeat, clients look up the nearest depots with free capacity.
package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"lonviz/internal/daemon"
	"lonviz/internal/lbone"
	"lonviz/internal/obs/slo"
)

func main() {
	d := daemon.New("lboned")
	addr := flag.String("addr", "127.0.0.1:6767", "listen address")
	ttl := flag.Duration("ttl", 30*time.Second, "registration freshness window")
	flag.Parse()

	d.Run(func(ctx context.Context, stack *slo.Stack) error {
		srv := lbone.NewServer()
		srv.TTL = *ttl
		bound, err := srv.ListenAndServe(*addr)
		if err != nil {
			return err
		}
		fmt.Printf("lboned: serving directory on http://%s (TTL %v)\n", bound, *ttl)
		stack.MarkReady()

		<-ctx.Done()
		srv.Close()
		fmt.Println("lboned: shutting down")
		return nil
	})
}
