// Package lonviz's root benchmark harness: one benchmark per table/figure
// of the paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out. These are experiment drivers more than
// micro-benchmarks — each iteration runs the real system — so they use
// reduced session lengths; cmd/lfbench runs the full 58-access sessions.
//
// Run with: go test -bench=. -benchmem
package lonviz

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"lonviz/internal/agent"
	"lonviz/internal/codec"
	"lonviz/internal/exnode"
	"lonviz/internal/experiments"
	"lonviz/internal/geom"
	"lonviz/internal/ibp"
	"lonviz/internal/lightfield"
	"lonviz/internal/lors"
	"lonviz/internal/session"
)

// benchConfig shrinks sessions so each b.N iteration stays around a
// second.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Accesses = 12
	cfg.ThinkTime = 2 * time.Millisecond
	cfg.WAN.Latency = 10 * time.Millisecond
	return cfg
}

// BenchmarkFig7_DatabaseSize measures database generation + lossless
// compression throughput (the data behind Figure 7) and reports the
// compression ratio.
func BenchmarkFig7_DatabaseSize(b *testing.B) {
	cfg := benchConfig()
	p := cfg.ParamsAt(50) // paper 200x200 at 1/4 scale
	gen, err := lightfield.NewProceduralGenerator(p, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	ids := p.AllViewSets()
	b.SetBytes(p.BytesPerViewSet())
	var raw, packed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		vs, err := gen.GenerateViewSet(context.Background(), id)
		if err != nil {
			b.Fatal(err)
		}
		frame, err := lightfield.EncodeViewSet(vs, p, codec.DefaultCompression)
		if err != nil {
			b.Fatal(err)
		}
		raw += p.BytesPerViewSet()
		packed += int64(len(frame))
	}
	b.ReportMetric(float64(raw)/float64(packed), "compression-ratio")
}

// BenchmarkFig8_Decompression measures per-view-set zlib inflation at the
// three resolutions of Figure 8.
func BenchmarkFig8_Decompression(b *testing.B) {
	cfg := benchConfig()
	for _, paperRes := range experiments.LatencyResolutions {
		res := experiments.ScaleRes(paperRes)
		b.Run(resName(paperRes), func(b *testing.B) {
			p := cfg.ParamsAt(res)
			gen, err := lightfield.NewProceduralGenerator(p, cfg.Seed)
			if err != nil {
				b.Fatal(err)
			}
			vs, err := gen.GenerateViewSet(context.Background(), lightfield.ViewSetID{R: 1, C: 2})
			if err != nil {
				b.Fatal(err)
			}
			frame, err := lightfield.EncodeViewSet(vs, p, codec.DefaultCompression)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(p.BytesPerViewSet())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lightfield.DecodeViewSet(frame, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// latencyBench runs the orchestrated session for one case at one paper
// resolution per iteration, reporting the paper's metrics.
func latencyBench(b *testing.B, paperRes int, cs experiments.Case) {
	b.Helper()
	cfg := benchConfig()
	res := experiments.ScaleRes(paperRes)
	var meanSum, wanSum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := experiments.RunCase(context.Background(), cfg, res, cs)
		if err != nil {
			b.Fatal(err)
		}
		var m float64
		for _, s := range session.TotalSeconds(recs) {
			m += s
		}
		meanSum += m / float64(len(recs))
		wanSum += float64(session.ClassCounts(recs)[agent.AccessWAN])
	}
	b.ReportMetric(meanSum/float64(b.N), "mean-access-sec")
	b.ReportMetric(wanSum/float64(b.N), "wan-accesses")
}

// BenchmarkFig9_Latency200 regenerates Figure 9's three cases at 200x200.
func BenchmarkFig9_Latency200(b *testing.B) {
	for cs, name := range caseNames() {
		b.Run(name, func(b *testing.B) { latencyBench(b, 200, cs) })
	}
}

// BenchmarkFig10_Latency300 regenerates Figure 10 at 300x300.
func BenchmarkFig10_Latency300(b *testing.B) {
	for cs, name := range caseNames() {
		b.Run(name, func(b *testing.B) { latencyBench(b, 300, cs) })
	}
}

// BenchmarkFig11_Latency500 regenerates Figure 11 at 500x500.
func BenchmarkFig11_Latency500(b *testing.B) {
	for cs, name := range caseNames() {
		b.Run(name, func(b *testing.B) { latencyBench(b, 500, cs) })
	}
}

func caseNames() map[experiments.Case]string {
	return map[experiments.Case]string{
		experiments.Case1LAN:    "case1_lan",
		experiments.Case2WAN:    "case2_wan",
		experiments.Case3Staged: "case3_landepot",
	}
}

// BenchmarkFig12_CommLatency isolates the communication latency of the
// three access classes (Figure 12's log-scale bands): an agent cache hit,
// a LAN depot fetch, and a WAN fetch. The last two run on agents whose
// cache no frame fits in, so every access crosses their link: a prestaged
// case-3 agent reads the LAN depot, a case-2 agent the WAN.
func BenchmarkFig12_CommLatency(b *testing.B) {
	for _, c := range []struct {
		name  string
		cs    experiments.Case
		cache int64
		class agent.AccessClass
	}{
		{"hit", experiments.Case1LAN, 0, agent.AccessHit},
		{"lan_depot", experiments.Case3Staged, 1, agent.AccessLANDepot},
		{"wan", experiments.Case2WAN, 1, agent.AccessWAN},
	} {
		cfg := benchConfig()
		if c.cache > 0 {
			cfg.CacheBytes = c.cache
		}
		d, err := experiments.Deploy(context.Background(), cfg, experiments.ScaleRes(300), c.cs)
		if err != nil {
			b.Fatal(err)
		}
		if c.cs == experiments.Case3Staged {
			done, err := d.CA.StartPrestaging(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				b.Fatal("prestaging did not finish")
			}
		}
		ids := d.Params.AllViewSets()
		if c.class == agent.AccessHit {
			ids = ids[:1]
			if _, _, err := d.CA.GetViewSet(context.Background(), ids[0]); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, rep, err := d.CA.GetViewSet(context.Background(), ids[i%len(ids)])
				if err != nil {
					b.Fatal(err)
				}
				if rep.Class != c.class {
					b.Fatalf("access %d class %v, want %v", i, rep.Class, c.class)
				}
			}
		})
		d.Close()
	}
}

// BenchmarkClientRenderFPS measures the client's table-lookup rendering
// rate (paper: above 30 fps even at 500x500 displays).
func BenchmarkClientRenderFPS(b *testing.B) {
	cfg := benchConfig()
	p := cfg.ParamsAt(64)
	gen, err := lightfield.NewProceduralGenerator(p, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	db, err := lightfield.BuildDatabase(context.Background(), gen, 0)
	if err != nil {
		b.Fatal(err)
	}
	r, err := lightfield.NewRenderer(p, lightfield.MapProvider(db.Sets))
	if err != nil {
		b.Fatal(err)
	}
	for _, display := range []int{125, 200, 500} {
		b.Run(resName(display), func(b *testing.B) {
			sp := geom.Spherical{Theta: 1.3, Phi: 0.7}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.Phi += 0.001
				cam, err := p.ViewerCamera(sp, p.OuterRadius*1.6, display)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := r.RenderView(cam); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "fps")
		})
	}
}

func resName(res int) string {
	return "res" + itoa(res)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- ablation benches (DESIGN.md section 5) ---

// BenchmarkAblationViewSetSize varies l: small view sets transfer less per
// miss but give the client a narrower supported window.
func BenchmarkAblationViewSetSize(b *testing.B) {
	for _, l := range []int{2, 3, 6} {
		b.Run("l"+itoa(l), func(b *testing.B) {
			cfg := benchConfig()
			cfg.L = l
			cfg.StepDeg = 10 // rows=18, cols=36: divisible by 2, 3, 6
			var meanSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := experiments.RunCase(context.Background(), cfg, 50, experiments.Case2WAN)
				if err != nil {
					b.Fatal(err)
				}
				var m float64
				for _, s := range session.TotalSeconds(recs) {
					m += s
				}
				meanSum += m / float64(len(recs))
			}
			b.ReportMetric(meanSum/float64(b.N), "mean-access-sec")
		})
	}
}

// BenchmarkAblationStripes varies the striping width of a LoRS download.
func BenchmarkAblationStripes(b *testing.B) {
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(9)).Read(payload)
	addrs := make([]string, 4)
	for i := range addrs {
		dep, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 26, MaxLease: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		srv := ibp.NewServer(dep)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = addr
	}
	for _, width := range []int{1, 2, 4} {
		b.Run("depots"+itoa(width), func(b *testing.B) {
			ex, err := lors.Upload(context.Background(), "bench", payload, lors.UploadOptions{
				Depots:     addrs[:width],
				StripeSize: 128 << 10,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, _, err := lors.Download(context.Background(), ex, lors.DownloadOptions{Parallelism: 8})
				if err != nil {
					b.Fatal(err)
				}
				if !bytes.Equal(got, payload) {
					b.Fatal("corrupt download")
				}
			}
		})
	}
}

// BenchmarkAblationPrefetchPolicy compares no prefetch, the paper's
// quadrant policy, full-neighborhood prefetch, and path-first prefetch.
func BenchmarkAblationPrefetchPolicy(b *testing.B) {
	type variant struct {
		name   string
		mutate func(*experiments.Config)
	}
	for _, v := range []variant{
		{"none", func(c *experiments.Config) { c.NoPrefetch = true }},
		{"quadrant", func(c *experiments.Config) {}},
		{"all_neighbors", func(c *experiments.Config) { c.PrefetchPolicy = agent.PrefetchNeighbors }},
		{"path", func(c *experiments.Config) { c.PrefetchPolicy = agent.PrefetchPath }},
	} {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchConfig()
			v.mutate(&cfg)
			var meanSum, wanSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := experiments.RunCase(context.Background(), cfg, 50, experiments.Case2WAN)
				if err != nil {
					b.Fatal(err)
				}
				var m float64
				for _, s := range session.TotalSeconds(recs) {
					m += s
				}
				meanSum += m / float64(len(recs))
				wanSum += float64(session.ClassCounts(recs)[agent.AccessWAN])
			}
			b.ReportMetric(meanSum/float64(b.N), "mean-access-sec")
			b.ReportMetric(wanSum/float64(b.N), "user-visible-wan")
		})
	}
}

// BenchmarkAblationZlibLevel varies the lossless compression level (the
// paper suggests "a more efficient compression scheme" as an alternative
// to client caching).
func BenchmarkAblationZlibLevel(b *testing.B) {
	cfg := benchConfig()
	p := cfg.ParamsAt(75)
	gen, err := lightfield.NewProceduralGenerator(p, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	vs, err := gen.GenerateViewSet(context.Background(), lightfield.ViewSetID{R: 1, C: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, lv := range []struct {
		name  string
		level int
	}{{"speed1", codec.BestSpeed}, {"default5", codec.DefaultCompression}, {"zlib6", 6}, {"best9", codec.BestCompression}} {
		level := lv.level
		b.Run(lv.name, func(b *testing.B) {
			frame, err := lightfield.EncodeViewSet(vs, p, level)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(p.BytesPerViewSet())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lightfield.DecodeViewSet(frame, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.BytesPerViewSet())/float64(len(frame)), "compression-ratio")
		})
	}
}

// BenchmarkAblationStageOrder compares cursor-proximity staging (the
// paper's policy) with sequential row-major staging.
func BenchmarkAblationStageOrder(b *testing.B) {
	for _, v := range []struct {
		name  string
		order agent.StageOrder
	}{
		{"proximity", agent.StageByProximity},
		{"sequential", agent.StageSequential},
	} {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.StageOrderPolicy = v.order
			var wanSum, lanSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := experiments.RunCase(context.Background(), cfg, 50, experiments.Case3Staged)
				if err != nil {
					b.Fatal(err)
				}
				counts := session.ClassCounts(recs)
				wanSum += float64(counts[agent.AccessWAN])
				lanSum += float64(counts[agent.AccessLANDepot])
			}
			b.ReportMetric(wanSum/float64(b.N), "wan-accesses")
			b.ReportMetric(lanSum/float64(b.N), "lan-depot-accesses")
		})
	}
}

// BenchmarkExNodeRoundTrip covers the metadata path: exNode XML encode +
// decode for a striped, replicated object.
func BenchmarkExNodeRoundTrip(b *testing.B) {
	ex := &exnode.ExNode{Name: "r03c11", Length: 6 * 64 << 10}
	for s := 0; s < 6; s++ {
		x := exnode.Extent{Offset: int64(s) * 64 << 10, Length: 64 << 10}
		for r := 0; r < 3; r++ {
			x.Replicas = append(x.Replicas, exnode.Replica{
				Depot:     "depot:6714",
				ReadCap:   "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
				ManageCap: "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb",
			})
		}
		ex.Extents = append(ex.Extents, x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := ex.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exnode.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRaceReplicas compares sequential replica failover with
// racing all replicas per extent (the progressive-redundancy download of
// the paper's reference [14]): racing trades redundant transfer for
// latency-variance resistance.
func BenchmarkAblationRaceReplicas(b *testing.B) {
	payload := make([]byte, 512<<10)
	rand.New(rand.NewSource(11)).Read(payload)
	addrs := make([]string, 3)
	for i := range addrs {
		dep, err := ibp.NewDepot(ibp.DepotConfig{Capacity: 1 << 26, MaxLease: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		srv := ibp.NewServer(dep)
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = addr
	}
	ex, err := lors.Upload(context.Background(), "race", payload, lors.UploadOptions{
		Depots:     addrs,
		StripeSize: 128 << 10,
		Replicas:   3,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		race bool
	}{{"failover", false}, {"race", true}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			var tries float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, stats, err := lors.Download(context.Background(), ex, lors.DownloadOptions{
					RaceReplicas: v.race,
					Parallelism:  8,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !bytes.Equal(got, payload) {
					b.Fatal("corrupt download")
				}
				tries += float64(stats.ReplicaTries)
			}
			b.ReportMetric(tries/float64(b.N), "replica-tries")
		})
	}
}

// BenchmarkAblationSuppressOnMiss measures the section 4.3 mitigation:
// pausing the prestager while a client-facing miss is in flight.
func BenchmarkAblationSuppressOnMiss(b *testing.B) {
	for _, v := range []struct {
		name     string
		suppress bool
	}{{"staging_always", false}, {"suppress_on_miss", true}} {
		b.Run(v.name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.SuppressStageOnMiss = v.suppress
			var meanSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := experiments.RunCase(context.Background(), cfg, 50, experiments.Case3Staged)
				if err != nil {
					b.Fatal(err)
				}
				var m float64
				for _, s := range session.TotalSeconds(recs) {
					m += s
				}
				meanSum += m / float64(len(recs))
			}
			b.ReportMetric(meanSum/float64(b.N), "mean-access-sec")
		})
	}
}
