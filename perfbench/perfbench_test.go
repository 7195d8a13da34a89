package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/bench"
	"github.com/acedsm/ace/internal/gateway"
	"github.com/acedsm/ace/internal/rtiface"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the program agree on workloads and metrics.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	for _, c := range []struct {
		file, prog []metricSpec
	}{{b.EndToEnd, endToEndMetrics}, {b.PerLayer, perLayerMetrics}} {
		if len(c.file) != len(c.prog) {
			t.Errorf("BENCHMARK.json has %d metrics, program %d", len(c.file), len(c.prog))
			continue
		}
		for i := range c.file {
			if c.file[i] != c.prog[i] {
				t.Errorf("metric %d: BENCHMARK.json %v, program %v", i, c.file[i], c.prog[i])
			}
		}
	}
}

// lastLine parses the result object a run prints last.
func lastLine(t *testing.T, out *outcome) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	report(&buf, out, map[string]any{})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// A tiny pass of every workload, traced and untraced, is correct and
// prints exactly the named metrics with their units.
func TestTinyPassEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			out, err := run(w, 1, 0.5, traced, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			if !out.correct || out.attempted < 1 || out.failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v",
					w, traced, out.correct, out.attempted, out.failed, out.notes)
			}
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics
			}
			res := lastLine(t, out)
			ms := res["metrics"].(map[string]any)
			if len(ms) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(ms), len(want))
			}
			for _, spec := range want {
				m, ok := ms[spec.Name].(map[string]any)
				if !ok {
					t.Errorf("%s traced=%v: missing %s", w, traced, spec.Name)
					continue
				}
				v, _ := m["value"].(float64)
				if m["unit"] != spec.Unit || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s traced=%v: %s = %v", w, traced, spec.Name, m)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, spec.Name, v)
				}
			}
		}
	}
}

// A solve whose checksum drifts from the sc reference beyond 1e-6
// relative fails, and makes the run incorrect; drift within it passes.
func TestPerturbedChecksumFails(t *testing.T) {
	for _, drift := range []float64{1e-3, 1e-9} {
		w := appInputs(1, bench.ScaleSmall)
		cases := appCases(w, false)
		var once atomic.Bool
		fn := cases[0].fn
		cases[0].fn = func(inst int) bench.AppFunc {
			return func(rt rtiface.RT) (apputil.Result, error) {
				r, err := fn(inst)(rt)
				if rt.ID() == 0 && once.CompareAndSwap(false, true) {
					r.Checksum = r.Checksum*(1+drift) + drift
				}
				return r, err
			}
		}
		out := &outcome{correct: true}
		runApps(appsWorkloads["apps-sc"], cases, appCases(w, false), 0.1, false, out)
		wantFail := drift > 1e-6
		if (out.failed == 1) != wantFail || out.correct == wantFail || (!wantFail && out.failed != 0) {
			t.Errorf("drift %g: failed=%d correct=%v notes=%v", drift, out.failed, out.correct, out.notes)
		}
	}
}

// A client that discards one delta of the reference rung raises the
// run's failures by exactly one delivery; nothing it did see was wrong.
func TestDroppedDeltaFails(t *testing.T) {
	var dropped atomic.Bool
	hooks := gwHooks{drop: func(conn int, r *gwRung, op *gwOp) bool {
		return r.name == "ref" && op.kind == gateway.OpAdd && dropped.CompareAndSwap(false, true)
	}}
	out := &outcome{correct: true}
	runGateway(1, gwTiny, 1, false, out, hooks)
	if out.failed != 1 || !out.correct || out.attempted < 2 {
		t.Errorf("failed=%d attempted=%d correct=%v notes=%v, want exactly one failed delivery",
			out.failed, out.attempted, out.correct, out.notes)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100000
		if math.Abs(got-want) > 0.07*want {
			t.Errorf("p%g = %g, want about %g", q*100, got, want)
		}
	}
}
