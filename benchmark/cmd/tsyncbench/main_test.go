package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smokeConfig is every workload at 1/50 scale with two jobs.
func smokeConfig(seed uint64) config {
	return config{seed: seed, scale: 50, seconds: 0, minJobs: 2, setups: 1, memJobs: 1}
}

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// assertMetrics requires got to hold exactly the names in want, each
// finite and with the declared unit.
func assertMetrics(t *testing.T, what string, want []metricSpec, got metricSet) {
	t.Helper()
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: BENCHMARK.json name %q is not a valid metric name", what, m.Name)
		}
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, m.Name)
			continue
		}
		if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
			t.Errorf("%s: metric %s = %v is not finite", what, m.Name, g.Value)
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json declares %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json lists %d", what, len(got), len(want))
	}
}

// pins are the exact counts that must repeat for one seed.
var pins = []string{
	"stream.input_passes", "stream.input_readat_calls", "stream.index_read_bytes",
	"clc.violations_before", "clc.violations_after", "clc.events_moved",
	"stream.out_bytes", "stream.spill_write_bytes", "stream.spill_files", "stream.max_pending",
}

func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	t.Setenv("TMPDIR", t.TempDir())
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
		res, err := runEndToEnd(i, smokeConfig(1))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %s", w.name, res.Correct, res.Attempted, res.Failed, res.FirstFailure)
		}
		assertMetrics(t, w.name, spec.EndToEnd, res.Metrics)
		for name, m := range res.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
			}
		}

		traced, err := runTraced(i, smokeConfig(1), spans)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !traced.Correct || traced.Attempted == 0 {
			t.Errorf("%s traced: correct=%v attempted=%d failed=%d: %s", w.name, traced.Correct, traced.Attempted, traced.Failed, traced.FirstFailure)
		}
		assertMetrics(t, w.name+" traced", spec.PerLayer, traced.Metrics)
		if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
			t.Errorf("%s traced: no spans written: %v", w.name, err)
		}

		// Metrics of a layer the workload does not run are absent, never 0.
		for name := range traced.Extra {
			if !nameRE.MatchString(name) {
				t.Errorf("%s traced: extra metric name %q is not valid", w.name, name)
			}
			if strings.HasPrefix(name, "tsyncd.") && w.clients == 0 {
				t.Errorf("%s traced: reports %s without a service", w.name, name)
			}
		}
		if _, ok := traced.Extra["tsyncd.wait_s_p50"]; ok != (w.clients > 0) {
			t.Errorf("%s traced: tsyncd.wait_s_p50 present=%v, clients=%d", w.name, ok, w.clients)
		}
		if _, ok := traced.Extra["core.pipeline_s"]; ok == w.census {
			t.Errorf("%s traced: core.pipeline_s present=%v, census=%v", w.name, ok, w.census)
		}

		// Exact counts repeat for one seed and differ for another.
		again, err := runTraced(i, smokeConfig(1), spans)
		if err != nil {
			t.Fatal(err)
		}
		other, err := runTraced(i, smokeConfig(2), spans)
		if err != nil {
			t.Fatal(err)
		}
		differs := false
		for _, name := range pins {
			if traced.Metrics[name] != again.Metrics[name] {
				t.Errorf("%s: %s is %v then %v for one seed", w.name, name, traced.Metrics[name].Value, again.Metrics[name].Value)
			}
			differs = differs || traced.Metrics[name] != other.Metrics[name]
		}
		if traced.Env.Events != again.Env.Events || traced.Env.Events != res.Env.Events || res.Env.Events == 0 {
			t.Errorf("%s: event count changed between runs of one seed", w.name)
		}
		if w.jump != 0 && !differs {
			t.Errorf("%s: no exact count differs between seeds 1 and 2", w.name)
		}

		switch w.name {
		case "clc-dense":
			if traced.Metrics["clc.violations_before"].Value <= 0 || traced.Metrics["clc.violations_after"].Value != 0 || traced.Metrics["clc.events_moved"].Value <= 0 {
				t.Errorf("clc-dense does not do the paper's work: %v", traced.Metrics)
			}
		case "census-wide":
			if traced.Metrics["stream.shards"].Value <= 1 || traced.Metrics["stream.spill_write_bytes"].Value != 0 {
				t.Errorf("census-wide: shards=%v spill_write_bytes=%v", traced.Metrics["stream.shards"].Value, traced.Metrics["stream.spill_write_bytes"].Value)
			}
		}
	}
}

// The correctness gate is itself tested: one flipped output byte fails
// the check, and a run whose jobs fail reports them.
func TestCheckerCatchesCorruptOutput(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	cfg := smokeConfig(1)
	h, _, _, err := setUp(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	r, err := h.job(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.w.check(h.in, h.ref, r); err != nil {
		t.Fatalf("clean output fails the check: %v", err)
	}
	r.out[len(r.out)/2] ^= 1
	if err := h.w.check(h.in, h.ref, r); err == nil {
		t.Error("one flipped output byte passes the check")
	}

	// A reference no job can match: every job must count as failed and
	// leave its events out of the throughput.
	h.ref.outBytes++
	res, err := h.endToEnd(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d, want every job failed", res.Correct, res.Failed, res.Attempted)
	}
	if _, ok := res.Metrics["events_per_s"]; ok {
		t.Error("a run with no passed job reports a throughput")
	}
}

func TestClcDenseRefusesRepairableTrace(t *testing.T) {
	i, _ := findWorkload("clc-dense")
	w := workloads[i]
	w.jump = 3e-4
	in, err := w.generate(i, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.computeReference(in); !errors.Is(err, errNoViolations) {
		t.Errorf("a 3e-4 jump leaves nothing for CLC, setup must refuse it; got %v", err)
	}
}

func TestExitCodes(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code == 0 {
		t.Error("unknown workload exits 0")
	}
	if code := run([]string{"-compare", "only-one"}, &out, &errb); code == 0 {
		t.Error("-compare with one file exits 0")
	}
	errb.Reset()
	if code := run([]string{"-workload", "sync", "-seed", "1"}, &out, &errb); code == 0 || !strings.Contains(errb.String(), "-seconds is required") {
		t.Errorf("a run without -seconds exits %d: %s", code, errb.String())
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	if got, want := spread(xs), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{3}) != 0 {
		t.Error("a single value has a spread")
	}
}

// writeResults writes n correct runs of workload "w" with the given
// values; edit, when not nil, changes run i before it is written.
func writeResults(t *testing.T, path string, n int, values map[string][]float64, edit func(i int, r *result)) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		r := result{Workload: "w", Correct: true, Metrics: metricSet{}, Extra: metricSet{}}
		for name, vs := range values {
			r.Metrics[name] = metric{vs[i], "x"}
		}
		if edit != nil {
			edit(i, &r)
		}
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"lat","unit":"s","better":"lower","bound":0.05},
		{"name":"tput","unit":"1/s","better":"higher","bound":0.05}]}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "old.jsonl")
	same := map[string][]float64{"lat": {1.00, 1.01, 0.99, 1.00, 1.02}, "tput": {100, 101, 99, 100, 102}}
	writeResults(t, old, 5, same, nil)
	for _, tc := range []struct {
		name      string
		lat, tput []float64
		code      int
		want      []string
	}{
		{"same", []float64{1.01, 1.00, 1.00, 0.99, 1.01}, []float64{100, 100, 101, 99, 100}, 0, []string{"ok", "ok"}},
		{"slower", []float64{1.10, 1.11, 1.09, 1.10, 1.12}, []float64{100, 100, 101, 99, 100}, 1, []string{"worse", "ok"}},
		{"lower throughput", []float64{1.0, 1.0, 1.0, 1.0, 1.0}, []float64{90, 91, 89, 90, 92}, 1, []string{"ok", "worse"}},
		{"too noisy to tell", []float64{0.8, 1.3, 1.0, 1.2, 0.9}, []float64{100, 100, 101, 99, 100}, 0, []string{"unresolved", "ok"}},
		{"noisy but every run better", []float64{0.5, 0.7, 0.6, 0.8, 0.55}, []float64{100, 100, 101, 99, 100}, 0, []string{"ok", "ok"}},
	} {
		cur := filepath.Join(dir, "new.jsonl")
		writeResults(t, cur, 5, map[string][]float64{"lat": tc.lat, "tput": tc.tput}, nil)
		var out, errb bytes.Buffer
		if code := compareFiles(specPath, old, cur, &out, &errb); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", tc.name, code, tc.code, out.String(), errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
		for i, want := range tc.want {
			if i >= len(lines) || !strings.Contains(lines[i], "  "+want+" ") {
				t.Errorf("%s: row %d lacks verdict %q:\n%s", tc.name, i, want, out.String())
			}
		}
	}
	// A workload with no runs on one side cannot be judged.
	var out, errb bytes.Buffer
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(specPath, old, empty, &out, &errb); code == 0 || !strings.Contains(out.String(), "missing") {
		t.Errorf("missing runs: exit %d\n%s", code, out.String())
	}

	// Runs that failed the checker are not judged on the runs that passed.
	out.Reset()
	cur := filepath.Join(dir, "new.jsonl")
	writeResults(t, cur, 5, same, func(i int, r *result) { r.Correct = i != 2 })
	if code := compareFiles(specPath, old, cur, &out, &errb); code != 1 || !strings.Contains(out.String(), "1 new runs FAILED the checker") {
		t.Errorf("a failed new run: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(specPath, cur, old, &out, &errb); code != 0 || !strings.Contains(out.String(), "1 old runs failed the checker") {
		t.Errorf("a failed old run: exit %d\n%s", code, out.String())
	}

	// Another toolchain or run length shifts the speed kernel's scaling
	// with no code change, so such files are refused.
	for what, edit := range map[string]func(int, *result){
		"go version": func(_ int, r *result) { r.Env.GoVersion = "go0.0" },
		"run length": func(_ int, r *result) { r.Env.Seconds = 1 },
	} {
		out.Reset()
		errb.Reset()
		writeResults(t, cur, 5, same, edit)
		if code := compareFiles(specPath, old, cur, &out, &errb); code != 2 || !strings.Contains(errb.String(), "not comparable") {
			t.Errorf("%s differs: exit %d\n%s%s", what, code, out.String(), errb.String())
		}
	}

	// A machine that moved by more than the time bound is flagged beside
	// the raw numbers.
	kernel := func(ms float64) func(int, *result) {
		return func(_ int, r *result) {
			r.Env.KernelMs = ms
			r.Extra["raw_job_s_p50"] = metric{ms / 50, "s"}
		}
	}
	spec = strings.Replace(spec, `"name":"lat"`, `"name":"job_s_p50"`, 1)
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	timed := map[string][]float64{"job_s_p50": same["lat"], "tput": same["tput"]}
	writeResults(t, old, 5, timed, kernel(50))
	for ms, flagged := range map[float64]bool{51: false, 60: true} {
		out.Reset()
		writeResults(t, cur, 5, timed, kernel(ms))
		if code := compareFiles(specPath, old, cur, &out, &errb); code != 0 || strings.Contains(out.String(), "MACHINE MOVED") != flagged || !strings.Contains(out.String(), "raw job_s_p50 1 -> ") {
			t.Errorf("kernel 50 -> %v ms: exit %d, want flagged=%v\n%s", ms, code, flagged, out.String())
		}
	}
}
