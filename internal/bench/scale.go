package bench

// GOMAXPROCS scaling harness: the same throughput-shaped measurements
// the fabric and bracket suites run, swept over GOMAXPROCS ∈ {1,2,4,8}
// with the dispatch-lane count matched to the core count. The sweep
// answers the multicore question the per-measurement artifacts cannot:
// does giving the runtime more hardware contexts (and sharding each
// node's dispatch across them) buy raw speed, and where does it stop?
// GOMAXPROCS=1 rows double as the embedded baseline — the speedup
// column of every other row is relative to the 1-core row of the same
// measurement. The same sweep backs the committed BENCH_scale.json
// artifact (`acebench -exp scale` or `make bench`). See DESIGN.md §11
// for the measured curves and their interpretation on hosts with fewer
// hardware contexts than the sweep requests.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/tcpnet"
	"github.com/acedsm/ace/proto"
)

// ScalePoints is the swept GOMAXPROCS schedule. Values above the host's
// core count are still measured — oversubscription is part of the
// curve, not an error — and the report records the host's capacity so a
// flat tail can be told apart from a scaling failure.
var ScalePoints = []int{1, 2, 4, 8}

// ScaleRow is one measurement at one GOMAXPROCS setting, JSON-shaped
// for BENCH_scale.json.
type ScaleRow struct {
	Name       string  `json:"name"` // e.g. "throughput/tcp", "em3d"
	GoMaxProcs int     `json:"gomaxprocs"`
	Lanes      int     `json:"lanes"` // dispatch lanes per node
	Ops        int     `json:"ops"`   // messages, bracket pairs, or em3d runs
	Seconds    float64 `json:"seconds"`
	PerSec     float64 `json:"per_sec"`
	// SpeedupVs1 is PerSec over the GOMAXPROCS=1 row of the same
	// measurement — those rows are the sweep's embedded baseline and
	// carry 1.0 here.
	SpeedupVs1 float64 `json:"speedup_vs_1core"`
}

// ScaleReport is the BENCH_scale.json document.
type ScaleReport struct {
	Generated string     `json:"generated_by"`
	HostCPUs  int        `json:"host_cpus"` // runtime.NumCPU at sweep time
	Points    []int      `json:"gomaxprocs_points"`
	Procs     int        `json:"procs"`
	Results   []ScaleRow `json:"results"`
}

// newScaleFabric builds an n-node network on the named transport with
// the given dispatch-lane count (clamped to n by the transports).
func newScaleFabric(transport string, n, lanes int) (amnet.Network, error) {
	switch transport {
	case "chan":
		return amnet.NewChanNetwork(amnet.ChanConfig{Nodes: n, Lanes: lanes})
	case "tcp":
		cfg := tcpnet.Loopback(n)
		cfg.Lanes = lanes
		return tcpnet.New(cfg)
	default:
		return nil, fmt.Errorf("bench: unknown transport %q", transport)
	}
}

// measureScalePoint runs the suite once at the current GOMAXPROCS
// setting: many-to-one fabric throughput on both transports (the
// pattern where sharded dispatch can actually use a second core — one
// pump per sender lane), the bracket hit/churn rate (application thread
// vs saturated pump), and the em3d application benchmark end to end.
func measureScalePoint(w Workloads, gmp, lanes, perSender, payload int) ([]ScaleRow, error) {
	var out []ScaleRow
	mk := func(name string, ops int, el time.Duration) ScaleRow {
		return ScaleRow{
			Name: name, GoMaxProcs: gmp, Lanes: lanes, Ops: ops,
			Seconds: el.Seconds(),
			PerSec:  float64(ops) / el.Seconds(),
		}
	}

	for _, tr := range []string{"chan", "tcp"} {
		tr := tr
		el, err := bestOf(
			func() (amnet.Network, error) { return newScaleFabric(tr, w.Procs, lanes) },
			func(nw amnet.Network) (time.Duration, error) { return FabricThroughput(nw, perSender, payload) },
		)
		if err != nil {
			return nil, fmt.Errorf("%s throughput: %w", tr, err)
		}
		out = append(out, mk("throughput/"+tr, perSender*(w.Procs-1), el))
	}

	// Bracket hit/churn: fixed-time, so the median of churnReps (cf.
	// MeasureBracket — the interference is the point, a best-of pick
	// would reward the run whose scheduling starved the flood).
	type churnRep struct {
		hits int
		el   time.Duration
	}
	reps := make([]churnRep, 0, churnReps)
	for i := 0; i < churnReps; i++ {
		h, el, _, _, err := bracketHitChurnLanes(w.Procs, churnWindow, lanes)
		if err != nil {
			return nil, fmt.Errorf("hit/churn: %w", err)
		}
		reps = append(reps, churnRep{h, el})
	}
	sort.Slice(reps, func(i, j int) bool {
		return float64(reps[i].hits)/reps[i].el.Seconds() < float64(reps[j].hits)/reps[j].el.Seconds()
	})
	med := reps[len(reps)/2]
	out = append(out, mk("bracket-hit/churn", med.hits, med.el))

	// em3d end to end: the application whose 16 KB remote payloads
	// exercise the writev path and whose per-step update fan-out
	// exercises sharded dispatch.
	fn, ok := App(w, "em3d", false)
	if !ok {
		return nil, fmt.Errorf("em3d: unknown app")
	}
	var best time.Duration
	for i := 0; i < fabricReps; i++ {
		o, err := runAceCluster(core.Options{Procs: w.Procs, Registry: proto.NewRegistry(), Transport: amnet.ChanConfig{Lanes: lanes}}, fn)
		if err != nil {
			return nil, fmt.Errorf("em3d: %w", err)
		}
		if el := timeOf(o.Result); best == 0 || el < best {
			best = el
		}
	}
	out = append(out, mk("em3d", 1, best))
	return out, nil
}

// bracketHitChurnLanes is bracketHitChurn with the cluster's dispatch
// sharded across the given lane count.
func bracketHitChurnLanes(procs int, window time.Duration, lanes int) (int, time.Duration, time.Duration, int64, error) {
	return bracketHitChurnOpts(core.Options{Procs: procs, Registry: proto.NewRegistry(), Transport: amnet.ChanConfig{Lanes: lanes}}, window)
}

// MeasureScale sweeps the scaling suite over the given GOMAXPROCS
// points (ScalePoints when nil), restoring the entry setting before
// returning. Each point runs with dispatch lanes matched to its core
// count — one pump lane per hardware context is the configuration the
// sharding exists for; lane counts beyond the node count are clamped by
// the transports.
func MeasureScale(w Workloads, points []int, perSender, payload int) ([]ScaleRow, error) {
	if points == nil {
		points = ScalePoints
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var rows []ScaleRow
	for _, gmp := range points {
		runtime.GOMAXPROCS(gmp)
		got, err := measureScalePoint(w, gmp, gmp, perSender, payload)
		if err != nil {
			return nil, fmt.Errorf("gomaxprocs=%d: %w", gmp, err)
		}
		rows = append(rows, got...)
	}
	// Fill the speedup column from each measurement's own 1-core row.
	base := map[string]float64{}
	for _, r := range rows {
		if r.GoMaxProcs == 1 {
			base[r.Name] = r.PerSec
		}
	}
	for i := range rows {
		if b := base[rows[i].Name]; b > 0 {
			rows[i].SpeedupVs1 = rows[i].PerSec / b
		}
	}
	return rows, nil
}

// WriteScaleReport runs MeasureScale and writes the JSON document.
func WriteScaleReport(out io.Writer, w Workloads, points []int, perSender, payload int) (ScaleReport, error) {
	rows, err := MeasureScale(w, points, perSender, payload)
	if err != nil {
		return ScaleReport{}, err
	}
	if points == nil {
		points = ScalePoints
	}
	rep := ScaleReport{
		Generated: "acebench -exp scale",
		HostCPUs:  runtime.NumCPU(),
		Points:    points,
		Procs:     w.Procs,
		Results:   rows,
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return rep, enc.Encode(rep)
}

// FormatScale renders the sweep as a table grouped by measurement, one
// row per GOMAXPROCS point, with the speedup-vs-1-core column.
func FormatScale(rows []ScaleRow) string {
	var out string
	out += fmt.Sprintf("%-20s %6s %6s %12s %14s %8s\n", "benchmark", "gmp", "lanes", "ops", "per_sec", "speedup")
	var names []string
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Name] {
			seen[r.Name] = true
			names = append(names, r.Name)
		}
	}
	for _, name := range names {
		for _, r := range rows {
			if r.Name != name {
				continue
			}
			out += fmt.Sprintf("%-20s %6d %6d %12d %14.1f %7.2fx\n",
				r.Name, r.GoMaxProcs, r.Lanes, r.Ops, r.PerSec, r.SpeedupVs1)
		}
	}
	return out
}
