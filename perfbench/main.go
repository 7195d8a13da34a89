// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time and prints every metric with its unit, after checking
// that the program's outputs are correct:
//
//	bash perfbench/run.sh --workload apps-sc --seed 1 --seconds 25 --trace 0
//
// Workloads: apps-sc, apps-hand-tcp and apps-adapt run the five paper
// applications at paper scale on eight processors (see apps.go);
// gateway drives an in-process websocket gateway with an open-loop
// ladder of offered rates (see gateway.go). With --trace 0 the run
// measures the end-to-end metrics with tracing off; with --trace 1 it
// reports the per-layer metrics from a traced run, plus the tracing
// overhead against an untraced run of the same workload. Every input
// is generated from --seed.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The line before it stamps the run with its environment and the
// sample count behind every metric. Traced runs also write their spans,
// each with the span that caused it, under the -outdir directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"github.com/acedsm/ace/internal/bench"
)

// metric is one reported number, with the count of samples behind it.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// outcome is one run's result: correctness, the operations attempted
// and failed, and the metrics.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	details   []metric // printed in the report only
	notes     []string
	spans     *spanLog
}

func (o *outcome) add(m metric) { o.metrics = append(o.metrics, m) }
func (o *outcome) detail(name, unit string, v float64, n int) {
	o.details = append(o.details, metric{name, unit, v, n})
}

// notef records why a check failed; the first few are printed.
func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"apps-sc", "apps-hand-tcp", "apps-adapt", "gateway"}

// scale selects input sizes: paper for the benchmark, tiny for the
// benchmark's own tests.
type scale struct {
	apps bench.Scale
	gw   gwPlan
}

var (
	paperScale = scale{apps: bench.ScalePaper, gw: gwPaper}
	tinyScale  = scale{apps: bench.ScaleSmall, gw: gwTiny}
)

// run executes one workload and returns its outcome.
func run(workload string, seed int64, seconds float64, traced bool, sc scale) (*outcome, error) {
	out := &outcome{correct: true}
	cfg, isApps := appsWorkloads[workload]
	switch {
	case isApps:
		w := appInputs(seed, sc.apps)
		runApps(cfg, appCases(w, cfg.hand), appCases(w, false), seconds, traced, out)
	case workload == "gateway":
		runGateway(seed, sc.gw, seconds, traced, out, gwHooks{})
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	out.finish(traced)
	return out, nil
}

// finish adds the failure ratio (a per-layer metric; an end-to-end run
// reports failures through attempted and failed) and, in a traced run,
// a zero for every layer the workload does not reach.
func (o *outcome) finish(traced bool) {
	fails := metric{"bench.fail_ratio", "ratio", ratio(float64(o.failed), float64(o.attempted)), o.attempted}
	if !traced {
		o.details = append(o.details, fails)
		return
	}
	o.add(fails)
	have := map[string]bool{}
	for _, m := range o.metrics {
		have[m.Name] = true
	}
	for _, m := range perLayerMetrics {
		if !have[m.Name] {
			o.add(metric{m.Name, m.Unit, 0, 0})
		}
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Float64("seconds", 25, "measured time per run")
		traceOn  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		root     = flag.String("root", ".", "checkout root, for the environment stamp")
		outdir   = flag.String("outdir", ".bench_build", "directory for span files of traced runs")
	)
	flag.Parse()
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	out, err := run(*workload, *seed, *seconds, *traceOn == 1, paperScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if out.spans != nil {
		path := filepath.Join(*outdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := out.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
		} else {
			fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
		}
	}
	for i, n := range out.notes {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more check failures\n", len(out.notes)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check:", n)
	}
	report(os.Stdout, out, stamp(*root, *workload, *seed, *seconds, *traceOn))
	if !out.correct {
		os.Exit(1)
	}
}

// report prints the human-readable table, the environment line and,
// last, the result object.
func report(w io.Writer, out *outcome, env map[string]any) {
	samples := map[string]int{}
	for _, ms := range [][]metric{out.metrics, out.details} {
		for _, m := range ms {
			fmt.Fprintf(w, "%-32s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
			samples[m.Name] = m.N
		}
	}
	stampLine, _ := json.Marshal(map[string]any{"env": env, "samples": samples})
	fmt.Fprintln(w, string(stampLine))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range out.metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, ms})
	fmt.Fprintln(w, string(line))
}

// stamp describes where and on what a run happened.
func stamp(root, workload string, seed int64, seconds float64, traceOn int) map[string]any {
	return map[string]any{
		"commit":        commit(root),
		"source_sha256": sourceDigest(root),
		"go":            runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workload":      workload,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         traceOn,
	}
}

// commit reads the checked-out commit from .git when the checkout is a
// repository, else from the build's VCS stamp, else "unknown"; the
// source digest identifies the code either way.
func commit(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(id))
		}
		if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if id, ok := strings.CutSuffix(line, " "+ref); ok {
					return id
				}
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files, in
// path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
