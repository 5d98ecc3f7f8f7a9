package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare and the smoke
// test read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultSet is one result file's plain runs.
type resultSet struct {
	// values are the correct runs' metric values by workload and name; the
	// extra metrics (raw_job_s_p50) and the run's speed_kernel_ms ride
	// along.
	values map[string]map[string][]float64
	// incorrect counts, per workload, the runs in which a job failed the
	// checker. Their numbers are left out of values.
	incorrect map[string]int
	// machines are the distinct go version / processors / run length /
	// scale the runs were made with.
	machines map[string]bool
}

// readResults loads a result file (one JSON object per line, as -out
// appends them) and groups the plain runs by workload.
func readResults(path string) (*resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &resultSet{values: map[string]map[string][]float64{}, incorrect: map[string]int{}, machines: map[string]bool{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue
		}
		e := r.Env
		rs.machines[fmt.Sprintf("%s, %d processors (GOMAXPROCS %d), -seconds %g, scale 1/%d", e.GoVersion, e.NProc, e.GOMAXPROCS, e.Seconds, e.Scale)] = true
		if !r.Correct {
			rs.incorrect[r.Workload]++
			continue
		}
		if rs.values[r.Workload] == nil {
			rs.values[r.Workload] = map[string][]float64{}
		}
		for _, set := range []metricSet{r.Metrics, r.Extra} {
			for name, m := range set {
				rs.values[r.Workload][name] = append(rs.values[r.Workload][name], m.Value)
			}
		}
		rs.values[r.Workload]["speed_kernel_ms"] = append(rs.values[r.Workload]["speed_kernel_ms"], e.KernelMs)
	}
	return rs, sc.Err()
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives; a single value has none.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return math.Abs((q(3) - q(1)) / median(s))
}

// verdict judges new against old for one metric. A spread wider than the
// bound cannot resolve a regression of the bound's size, so the pair is
// unresolved unless every new run beats every old one.
func verdict(spec metricSpec, old, cur []float64) (worseBy, spr float64, v string) {
	worseBy = (median(cur) - median(old)) / median(old)
	better := func(a, b float64) bool { return a < b }
	if spec.Better == "higher" {
		worseBy = -worseBy
		better = func(a, b float64) bool { return a > b }
	}
	spr = max(spread(old), spread(cur))
	if spr > spec.Bound {
		for _, c := range cur {
			for _, o := range old {
				if !better(c, o) {
					return worseBy, spr, "unresolved"
				}
			}
		}
		return worseBy, spr, "ok"
	}
	if worseBy > spec.Bound {
		return worseBy, spr, "worse"
	}
	return worseBy, spr, "ok"
}

// compareFiles prints one row per workload and end-to-end metric and
// returns 1 when any is worse than its bound or missing, or when a run of
// the new file failed the checker. Two files made with different
// toolchains, processor counts, run lengths or scales are refused: the
// speed kernel is compiled by the same toolchain and sized for one
// machine, so its scaling does not carry across them.
func compareFiles(specPath, oldPath, newPath string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "tsyncbench: %v\n", err)
		return 2
	}
	old, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "tsyncbench: %v\n", err)
		return 2
	}
	cur, err := readResults(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "tsyncbench: %v\n", err)
		return 2
	}
	machines := map[string]bool{}
	for _, rs := range []*resultSet{old, cur} {
		for m := range rs.machines {
			machines[m] = true
		}
	}
	if len(machines) > 1 {
		fmt.Fprintln(stderr, "tsyncbench: the runs are not comparable, they were made with:")
		names := make([]string, 0, len(machines))
		for m := range machines {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			fmt.Fprintf(stderr, "  %s\n", m)
		}
		return 2
	}

	code := 0
	timeBound := 0.0
	for _, m := range spec.EndToEnd {
		if m.Name == "job_s_p50" {
			timeBound = m.Bound
		}
	}
	fmt.Fprintf(stdout, "%-12s %-20s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "worse by", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		ow, cw := old.values[w.Name], cur.values[w.Name]
		for _, m := range spec.EndToEnd {
			o, c := ow[m.Name], cw[m.Name]
			if len(o) == 0 || len(c) == 0 {
				fmt.Fprintf(stdout, "%-12s %-20s %14s %14s %9s %8s %6.1f%%  missing (%d old, %d new runs)\n", w.Name, m.Name, "-", "-", "-", "-", 100*m.Bound, len(o), len(c))
				code = 1
				continue
			}
			worseBy, spr, v := verdict(m, o, c)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-12s %-20s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s (n=%d,%d)\n",
				w.Name, m.Name, median(o), median(c), 100*worseBy, 100*spr, 100*m.Bound, v, len(o), len(c))
		}
		// The uncorrected numbers, and whether the machine moved by more
		// than a time metric may.
		if ko, kc := ow["speed_kernel_ms"], cw["speed_kernel_ms"]; len(ko) > 0 && len(kc) > 0 && median(ko) > 0 {
			moved := median(kc)/median(ko) - 1
			note := ""
			if math.Abs(moved) > timeBound {
				note = "  MACHINE MOVED by more than a time bound: the time rows above compare two machines as much as two commits"
			}
			fmt.Fprintf(stdout, "%-12s raw job_s_p50 %.4g -> %.4g s, speed kernel %.1f -> %.1f ms (%+.1f%%)%s\n",
				w.Name, median(ow["raw_job_s_p50"]), median(cw["raw_job_s_p50"]), median(ko), median(kc), 100*moved, note)
		}
		if n := old.incorrect[w.Name]; n > 0 {
			fmt.Fprintf(stdout, "%-12s %d old runs failed the checker and are left out\n", w.Name, n)
		}
		if n := cur.incorrect[w.Name]; n > 0 {
			fmt.Fprintf(stdout, "%-12s %d new runs FAILED the checker and are left out\n", w.Name, n)
			code = 1
		}
	}
	return code
}
