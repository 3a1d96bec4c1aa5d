// Command dvsd runs one level of the Dictionary of View Sets hierarchy.
// Give -parent to chain levels DNS-style; the root level can forward
// misses to registered server agents for on-demand generation.
package main

import (
	"context"
	"flag"
	"fmt"

	"lonviz/internal/agent"
	"lonviz/internal/daemon"
	"lonviz/internal/dvs"
	"lonviz/internal/obs/slo"
)

func main() {
	d := daemon.New("dvsd")
	addr := flag.String("addr", "127.0.0.1:6800", "listen address")
	parent := flag.String("parent", "", "parent DVS address (empty for the root)")
	generate := flag.Bool("generate", false, "forward full-hierarchy misses to registered server agents")
	admission := d.Admission()
	flag.Parse()

	d.Run(func(ctx context.Context, stack *slo.Stack) error {
		srv := dvs.NewServer(*parent)
		if *generate {
			srv.Generate = agent.GenerateFunc(nil)
		}
		srv.Admission = admission.Gate()
		bound, err := srv.ListenAndServe(*addr)
		if err != nil {
			return err
		}
		role := "root"
		if *parent != "" {
			role = "child of " + *parent
		}
		fmt.Printf("dvsd: serving DVS on %s (%s, on-demand generation %v)\n", bound, role, *generate)
		stack.MarkReady()

		<-ctx.Done()
		srv.Close()
		fmt.Println("dvsd: shutting down")
		return nil
	})
}
