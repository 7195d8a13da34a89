package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/bench"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
	"github.com/acedsm/ace/internal/tcpnet"
	"github.com/acedsm/ace/internal/trace"
	"github.com/acedsm/ace/proto"
)

// appProcs is the logical processor count of every app workload. Above
// four processors the collectives' automatic topology picks the tree,
// so eight exercises tree collectives and barrier-time aggregation.
const appProcs = 8

// appsConfig is one app workload: which protocols the apps bind, which
// transport carries their messages, and whether the adaptive
// controller runs.
type appsConfig struct {
	hand      bool // the apps' hand-picked Fig. 7b protocols instead of sc
	transport func() amnet.Transport
	adapt     func() *core.AdaptConfig
}

var appsWorkloads = map[string]appsConfig{
	// The five apps on sc over the in-process channel network: the
	// miss-heavy baseline, where the work is in the core slow path, the
	// sc protocol and the amnet mailboxes.
	"apps-sc": {},
	// The five apps on their hand-picked protocols over an in-process
	// tcp mesh: push aggregation, tree collectives and tcpnet's
	// writer/journal/reader path.
	"apps-hand-tcp": {
		hand:      true,
		transport: func() amnet.Transport { return tcpnet.Loopback(appProcs) },
	},
	// The five apps started on sc with the adaptive controller on: the
	// only workload in which the controller decides anything.
	"apps-adapt": {
		adapt: func() *core.AdaptConfig {
			return &core.AdaptConfig{EpochBarriers: 2, Hysteresis: 2, Cooldown: 1, MinOps: 8}
		},
	},
}

// appCase is one paper application with its inputs bound.
type appCase struct {
	name   string // bench.AppNames spelling
	metric string // per-app metric: the §5.1 time, in ms
	// fn returns the app on the inputs of instance inst. Every app but
	// tsp has one instance per seed; tsp solves a new instance each
	// time, because its branch-and-bound cost varies fivefold between
	// instances, so one instance per seed would make the benchmark
	// measure which instance the seed drew.
	fn     func(inst int) bench.AppFunc
	varied bool
}

var appMetric = map[string]string{
	"barnes-hut": "apps.barnes_step_ms",
	"bsc":        "apps.bsc_solve_ms",
	"em3d":       "apps.em3d_step_ms",
	"tsp":        "apps.tsp_solve_ms",
	"water":      "apps.water_step_ms",
}

// appInputs derives every application input from the workload seed.
func appInputs(seed int64, scale bench.Scale) bench.Workloads {
	w := bench.WorkloadsFor(scale, appProcs)
	rng := rand.New(rand.NewSource(seed))
	w.EM3D.Seed = rng.Int63n(1 << 30)
	w.TSP.Seed = rng.Int63n(1 << 30)
	w.BarnesHut.Seed = rng.Int63n(1 << 30)
	w.Water.Seed = rng.Int63n(1 << 30)
	w.BSC.Seed = rng.Int63n(1 << 30)
	return w
}

func appCases(w bench.Workloads, hand bool) []appCase {
	var cs []appCase
	for _, name := range bench.AppNames() {
		name := name
		fn, _ := bench.App(w, name, hand)
		c := appCase{name: name, metric: appMetric[name], fn: func(int) bench.AppFunc { return fn }}
		if name == "tsp" {
			c.varied = true
			c.fn = func(inst int) bench.AppFunc {
				wi := w
				wi.TSP.Seed = w.TSP.Seed + int64(inst)*1_000_003
				fn, _ := bench.App(wi, name, hand)
				return fn
			}
		}
		cs = append(cs, c)
	}
	return cs
}

// solve is the outcome of one application run on a fresh cluster.
type solve struct {
	app   string
	setup time.Duration // cluster and transport construction
	wall  time.Duration // Run, from entry to the last processor's return
	res   apputil.Result
	m     trace.Metrics
	err   error

	// Traced solves only: span time per category summed over
	// processors, compute time outside runtime calls averaged over
	// processors, and the process counters' change.
	spans [numCats]int64
	self  int64
	proc  procSample
}

// iterTime is the paper's §5.1 quantity: time per timed iteration for
// the iterative apps, total time for bsc and tsp.
func (s solve) iterTime() time.Duration {
	if s.res.TimePerIter > 0 && s.res.Iters > 1 {
		return s.res.TimePerIter
	}
	return s.res.Total
}

// check returns why the solve failed, or "" when it passed: it must
// return no error, agree with the same inputs' sc checksum to 1e-6
// relative, and show no transport retransmits, reconnects or faults.
func (s solve) check(ref float64) string {
	switch {
	case s.err != nil:
		return s.err.Error()
	case !checksumOK(s.res.Checksum, ref):
		return fmt.Sprintf("checksum %.12g, sc reference %.12g", s.res.Checksum, ref)
	case s.m.Net.Retransmits != 0 || s.m.Net.Reconnects != 0 || s.m.Net.Faults.Total() != 0:
		return fmt.Sprintf("transport retransmits=%d reconnects=%d faults=%d",
			s.m.Net.Retransmits, s.m.Net.Reconnects, s.m.Net.Faults.Total())
	}
	return ""
}

func checksumOK(got, ref float64) bool {
	return math.Abs(got-ref) <= 1e-6*math.Max(math.Abs(got), math.Abs(ref))
}

// runSolve runs one app on a fresh cluster. With tr non-nil every
// processor reaches the runtime through a tracedRT and the cluster
// counts operations.
func runSolve(cfg appsConfig, name string, fn bench.AppFunc, tr *appTracer) solve {
	s := solve{app: name}
	opts := core.Options{Procs: appProcs}
	if tr != nil {
		opts.Trace = &trace.Config{Counters: true}
	}
	start := time.Now()
	opts.Registry = proto.NewRegistry()
	if cfg.transport != nil {
		opts.Transport = cfg.transport()
	}
	if cfg.adapt != nil {
		opts.Adapt = cfg.adapt()
	}
	cl, err := core.NewCluster(opts)
	s.setup = time.Since(start)
	if err != nil {
		s.err = fmt.Errorf("%s: new cluster: %w", name, err)
		return s
	}
	var res apputil.Result
	var before procSample
	if tr != nil {
		before = readProc()
	}
	start = time.Now()
	err = cl.Run(func(p *core.Proc) error {
		var rt rtiface.RT = rtiface.NewAce(p)
		var done func()
		if tr != nil {
			rt, done = tr.wrap(p.ID(), rtiface.NewAce(p))
		}
		r, err := fn(rt)
		if done != nil {
			done()
		}
		if p.ID() == 0 {
			res = r // read after Run returns, which waits for every processor
		}
		return err
	})
	s.wall = time.Since(start)
	if tr != nil {
		s.proc = readProc().sub(before)
		s.spans, s.self = tr.take()
	}
	s.res = res
	s.m = cl.Metrics()
	if cerr := cl.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close cluster: %w", cerr)
	}
	if err != nil {
		s.err = fmt.Errorf("%s: %w", name, err)
	}
	return s
}

// passFloor is the least time each app gets in a pass: the short apps
// (tsp, bsc, water) repeat until they reach it, so their medians rest
// on as many solves as em3d's and barnes-hut's.
const passFloor = 300 * time.Millisecond

// appsRun accumulates the solves of one benchmark invocation.
type appsRun struct {
	cfg     appsConfig
	cases   []appCase
	scCases []appCase // the same apps on sc, for reference checksums
	refs    map[string]float64
	insts   map[string]int // instances of each varied app solved so far
	out     *outcome
}

// ref returns the sc checksum for an instance, solving it on sc over
// the channel network (untimed) the first time.
func (r *appsRun) ref(i, inst int) float64 {
	key := fmt.Sprintf("%s/%d", r.cases[i].name, inst)
	if v, ok := r.refs[key]; ok {
		return v
	}
	s := runSolve(appsConfig{}, r.cases[i].name, r.scCases[i].fn(inst), nil)
	if s.err != nil {
		r.out.correct = false
		r.out.notef("sc reference %s: %v", key, s.err)
	}
	r.refs[key] = s.res.Checksum
	return s.res.Checksum
}

// pass runs every app at least once, and each until it has had
// passFloor, checking every solve.
func (r *appsRun) pass(tr *appTracer) []solve {
	var ss []solve
	for i, c := range r.cases {
		var spent time.Duration
		for spent == 0 || spent < passFloor {
			inst := 0
			if c.varied {
				inst = r.insts[c.name]
				r.insts[c.name]++
			}
			ref := r.ref(i, inst)
			s := runSolve(r.cfg, c.name, c.fn(inst), tr)
			spent += s.setup + s.wall
			r.out.attempted++
			if why := s.check(ref); why != "" {
				r.out.failed++
				r.out.notef("solve %s failed: %s", c.name, why)
				if s.err == nil && !checksumOK(s.res.Checksum, ref) {
					r.out.correct = false
				}
			}
			ss = append(ss, s)
		}
	}
	return ss
}

// passes runs solve passes until d has elapsed, at least one.
func (r *appsRun) passes(d time.Duration, tr *appTracer) (ps [][]solve) {
	start := time.Now()
	for len(ps) == 0 || time.Since(start) < d {
		ps = append(ps, r.pass(tr))
	}
	return ps
}

// byApp groups solves by app, in case order.
func (r *appsRun) byApp(ps [][]solve) [][]solve {
	out := make([][]solve, len(r.cases))
	for _, p := range ps {
		for _, s := range p {
			for i, c := range r.cases {
				if s.app == c.name {
					out[i] = append(out[i], s)
				}
			}
		}
	}
	return out
}

func iterTimesMs(ss []solve) []float64 {
	var ts []float64
	for _, s := range ss {
		ts = append(ts, float64(s.iterTime())/1e6)
	}
	return ts
}

// perSolve sums f over an app's solves and divides by their number.
func perSolve(ss []solve, f func(s solve) float64) float64 {
	var t float64
	for _, s := range ss {
		t += f(s)
	}
	return ratio(t, float64(len(ss)))
}

// runApps runs an app workload. Every solve is checked against the sc
// checksum of the same inputs; the fixed-instance apps get theirs from
// an untimed sc pass before timing starts. Untraced, the whole budget
// measures; traced, 30% measures untraced (the overhead baseline and the
// per-app times) and the rest runs through the tracing wrappers.
func runApps(cfg appsConfig, cases, scCases []appCase, seconds float64, traced bool, out *outcome) {
	r := &appsRun{cfg: cfg, cases: cases, scCases: scCases, refs: map[string]float64{}, insts: map[string]int{}, out: out}
	for i, c := range cases {
		if !c.varied {
			r.ref(i, 0)
		}
	}
	budget := time.Duration(seconds * float64(time.Second))
	if !traced {
		r.endToEnd(r.passes(budget, nil))
		return
	}
	base := r.passes(budget*3/10, nil)
	tr := newAppTracer()
	ps := r.passes(budget*7/10, tr)
	r.perLayer(base, ps, tr)
}

func (r *appsRun) endToEnd(ps [][]solve) {
	var setups, mids, rates []float64
	for i, ss := range r.byApp(ps) {
		ts := iterTimesMs(ss)
		mids = append(mids, median(ts))
		rates = append(rates, 1/perSolve(ss, func(s solve) float64 { return (s.setup + s.wall).Seconds() }))
		for _, s := range ss {
			setups = append(setups, s.setup.Seconds())
		}
		r.out.detail(r.cases[i].metric, "ms", mids[i], len(ts))
	}
	r.out.add(metric{"setup_s", "s", median(setups), len(setups)})
	r.out.add(metric{"time_ms", "ms", geomean(mids), len(setups)})
	r.out.add(metric{"rate_per_s", "1/s", geomean(rates), len(setups)})
	r.out.add(metric{"rss_peak_mb", "MB", peakRSSMB(), 1})
}

// perLayer reports the traced passes. Counts and times are per solve
// pass: each app's total divided by its number of solves, summed over
// the five apps.
func (r *appsRun) perLayer(base, ps [][]solve, tr *appTracer) {
	apps := r.byApp(ps)
	perPass := func(f func(s solve) float64) float64 {
		var t float64
		for _, ss := range apps {
			t += perSolve(ss, f)
		}
		return t
	}
	add := func(name, unit string, f func(s solve) float64) {
		r.out.add(metric{name, unit, perPass(f), len(ps)})
	}
	ratioOf := func(name, unit string, num, den func(m trace.Metrics) uint64) {
		var n, d float64
		for _, ss := range apps {
			for _, s := range ss {
				n += float64(num(s.m))
				d += float64(den(s.m))
			}
		}
		r.out.add(metric{name, unit, ratio(n, d), int(d)})
	}
	spanMs := func(cats ...int) func(s solve) float64 {
		return func(s solve) float64 {
			var t int64
			for _, c := range cats {
				t += s.spans[c]
			}
			return float64(t) / 1e6
		}
	}
	adapt := func(f func(a trace.AdaptStats) uint64) func(s solve) float64 {
		return func(s solve) float64 {
			var n uint64
			for _, a := range s.m.Adapt {
				n += f(a)
			}
			return float64(n)
		}
	}
	hists := tr.log.hists()
	opens := &hists[catOpen]
	add("apps.compute_ms", "ms", func(s solve) float64 { return float64(s.self) / 1e6 })
	add("apps.warmup_ms", "ms", func(s solve) float64 { return float64(s.wall-s.res.Total) / 1e6 })
	add("core.bracket_ms", "ms", spanMs(catOpen, catClose))
	r.out.add(metric{"core.bracket_ns_p50", "ns", opens.quantile(0.5), int(opens.n)})
	r.out.add(metric{"core.bracket_ns_p99", "ns", opens.quantile(0.99), int(opens.n)})
	add("core.map_ms", "ms", spanMs(catMap))
	ratioOf("core.fast_hit_ratio", "ratio", func(m trace.Metrics) uint64 { return m.FastOps.Total() },
		func(m trace.Metrics) uint64 { return m.Ops.Total() })
	add("core.remote_misses", "count", func(s solve) float64 {
		var n uint64
		for _, sp := range s.m.Spaces {
			n += sp.RemoteReadMisses + sp.RemoteWriteMisses
		}
		return float64(n)
	})
	add("core.sync_ms", "ms", spanMs(catSync))
	add("core.coll_ms", "ms", spanMs(catColl))
	add("core.space_ms", "ms", spanMs(catSpace))
	add("adapt.switches", "count", adapt(func(a trace.AdaptStats) uint64 { return a.Switches }))
	add("adapt.rollbacks", "count", adapt(func(a trace.AdaptStats) uint64 { return a.Rollbacks }))
	add("adapt.migrations", "count", adapt(func(a trace.AdaptStats) uint64 { return a.Migrations }))
	add("proto.msgs", "count", func(s solve) float64 { return float64(s.m.Net.MsgsSent) })
	add("proto.bytes", "B", func(s solve) float64 { return float64(s.m.Net.BytesSent) })
	ratioOf("coll.hops_per_round", "count", func(m trace.Metrics) uint64 { return m.Coll.Hops },
		func(m trace.Metrics) uint64 { return m.Coll.Barriers + m.Coll.Reduces + m.Coll.Bcasts })
	ratioOf("coll.agg_regions_per_frame", "count", func(m trace.Metrics) uint64 { return m.Coll.AggRegions },
		func(m trace.Metrics) uint64 { return m.Coll.AggFrames })
	ratioOf("tcpnet.msgs_per_flush", "count", func(m trace.Metrics) uint64 { return m.Net.MsgsSent },
		func(m trace.Metrics) uint64 { return m.Net.Flushes })
	add("tcpnet.send_queue_stalls", "count", func(s solve) float64 { return float64(s.m.Net.SendQueueStalls) })
	add("tcpnet.retransmits", "count", func(s solve) float64 { return float64(s.m.Net.Retransmits) })
	add("proc.cpu_ms_per_op", "ms", func(s solve) float64 { return float64(s.proc.cpu) / 1e6 })
	add("proc.write_syscalls_per_op", "count", func(s solve) float64 { return float64(s.proc.syscw) })
	add("proc.allocs_per_op", "count", func(s solve) float64 { return float64(s.proc.mallocs) })
	add("proc.gc_pause_ms", "ms", func(s solve) float64 { return float64(s.proc.gcPause) / 1e6 })
	overhead := func(ps [][]solve) float64 {
		var t float64
		for _, ss := range r.byApp(ps) {
			t += perSolve(ss, func(s solve) float64 { return (s.setup + s.wall).Seconds() })
		}
		return t
	}
	r.out.add(metric{"bench.trace_overhead", "ratio", ratio(overhead(ps), overhead(base)), len(ps)})
	for i, ss := range r.byApp(base) {
		ts := iterTimesMs(ss)
		r.out.add(metric{r.cases[i].metric, "ms", median(ts), len(ts)})
	}
	r.out.spans = &tr.log
}
