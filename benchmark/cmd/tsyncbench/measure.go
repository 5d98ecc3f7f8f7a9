package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tsync/internal/tsyncd"
)

// config sizes one run. The flags set seed and seconds; the smoke test
// shrinks the rest.
type config struct {
	seed uint64
	// scale divides every workload's step count (1 is full size).
	scale int
	// seconds is how long the timed phase lasts (a traced run gives each
	// probe a tenth of it); minJobs is how many rounds, so jobs for each
	// client, it holds even when that takes longer.
	seconds float64
	minJobs int
	// setups is how many times set-up is repeated (setup_s is their
	// median); each ends in one untimed warm-up job, so it is also the
	// warm-up count.
	setups int
	// memJobs is the number of separate memory jobs after the timed
	// phase.
	memJobs int
}

func defaultConfig(seed uint64, seconds float64) config {
	return config{seed: seed, scale: 1, seconds: seconds, minJobs: 24, setups: 3, memJobs: 5}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// result is one run. Metrics holds the names BENCHMARK.json lists
// (end-to-end ones for a plain run, per-layer ones for a traced run);
// Extra holds layer metrics that apply to this workload only and the
// exact counts the smoke test pins.
type result struct {
	Workload  string    `json:"workload"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"ops_attempted"`
	Failed    int       `json:"ops_failed"`
	Metrics   metricSet `json:"metrics"`
	Extra     metricSet `json:"extra,omitempty"`
	Env       env       `json:"env"`
	// FirstFailure is the checker's message for the first failed job.
	FirstFailure string `json:"first_failure,omitempty"`
	// JobWalls and JobLost are the timed phase's passed jobs and RoundCPUs
	// its rounds, in seconds as measured, before scaling to reference
	// speed — time with steal discounted, the discount, and process CPU —
	// for a reader who wants another statistic than the ones reported
	// (serve's two sessions of a round overlap, so CPU is per round).
	JobWalls  []float64 `json:"job_s,omitempty"`
	JobLost   []float64 `json:"job_steal_discount_s,omitempty"`
	RoundCPUs []float64 `json:"round_cpu_s,omitempty"`
}

// env records the machine and the run's sizes, so a later reader can
// tell a code move from a machine move.
type env struct {
	Seed       uint64  `json:"seed"`
	Scale      int     `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Events     int64   `json:"events_per_job"`
	Clients    int     `json:"clients"`
	Warmups    int     `json:"warmup_jobs"`
	TimedJobs  int     `json:"timed_jobs"`
	MemoryJobs int     `json:"memory_jobs"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
	// KernelMs is the run's median time of the speed kernel (every
	// reported time was multiplied by kernelRefMs / KernelMs) and StealS
	// the CPU time the hypervisor gave to other guests during the run:
	// load average misses a busy neighbour, these do not.
	KernelMs float64 `json:"speed_kernel_ms"`
	StealS   float64 `json:"host_steal_s"`
}

// countingHash is the output sink of the reference run: it digests the
// bytes exactly as experiments.ChecksumTraceFile would and counts them.
type countingHash struct {
	h hash.Hash64
	n int
}

func (c *countingHash) Write(p []byte) (int, error) {
	c.n += len(p)
	return c.h.Write(p)
}

func (c *countingHash) sum() string { return fmt.Sprintf("%016x", c.h.Sum64()) }

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSeconds is the CPU time, summed over processors, that the
// hypervisor has given to other guests since boot (the steal column of
// /proc/stat); 0 where the kernel does not report it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ is 100 on every Linux port Go supports
}

// watch times an interval on a guest whose processors the hypervisor may
// hand to other guests. The time it reports is the wall time less this
// guest's share of what was handed away meanwhile (steal / processors):
// on a dedicated machine steal is 0 and that is the wall time. On the
// shared host this benchmark was sized on, runs that lost 18 s of 60
// CPU-seconds had median jobs twice as long; discounting steal brought
// the run-to-run spread of that median from 44% to 21% on clc-dense and
// from 22% to 9% on census-wide. What a busy neighbour costs through
// shared caches is not steal and stays in the number.
type watch struct {
	t0    time.Time
	steal float64
}

func startWatch() watch { return watch{time.Now(), stealSeconds()} }

// stop returns the discounted time and the discount.
func (w watch) stop() (own, lost time.Duration) {
	wall := time.Since(w.t0)
	lost = time.Duration((stealSeconds() - w.steal) / float64(runtime.NumCPU()) * float64(time.Second))
	lost = min(lost, wall)
	return wall - lost, lost
}

// kernelRefMs is the speed kernel's time on the reference machine: the
// two-vCPU host this benchmark was sized on, in its quiet minutes.
const kernelRefMs = 50

// speedometer tells how fast the machine is while a run measures. The
// host's speed moves by itself — the same job took 0.8 s, then 1.3 s half
// an hour later, with nothing else running in the guest and no steal
// reported — so a run times a fixed kernel that no change to the
// repository can touch between its jobs, outside their timed intervals,
// and reports every time at reference speed: multiplied by kernelRefMs
// over the median kernel time. Between two 10-run sets twenty minutes
// apart, raw median job times moved by up to 25% and the kernel moved
// with them to within 12%.
type speedometer struct {
	// scale divides the kernel's length, as config.scale divides the
	// workloads, so the smoke test does not spend its time here.
	scale int
	ms    []float64
}

// speedTable is the kernel's 64 MiB table, outside the Go heap like the
// trace buffers so that it does not stretch the collector's pacing.
var speedTable = sync.OnceValue(func() []byte {
	const size = 64 << 20
	if b, err := offHeap(size); err == nil {
		return b
	}
	return make([]byte, size)
})

// sample runs the kernel once: 3M dependent multiply-adds, each followed
// by an update at a random place in the table, so that it slows down
// with a busy neighbour's cache and memory traffic as well as with its
// CPU use.
func (s *speedometer) sample() {
	table := speedTable()
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 3_000_000/max(s.scale, 1); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		table[x>>38] += byte(x)
	}
	s.ms = append(s.ms, float64(time.Since(t0))/float64(time.Millisecond))
}

func (s *speedometer) kernelMs() float64 { return median(s.ms) }

// factor is what a time measured beside these samples is multiplied by.
func (s *speedometer) factor() float64 { return kernelRefMs / s.kernelMs() }

// offHeap returns n zeroed bytes outside the Go heap. A tracesync user's
// input and output are files; keeping the benchmark's in-memory copies
// out of the heap leaves the collector pacing itself on the engine's own
// objects, as it does for that user, and keeps 100 MB of buffers out of
// the baseline the memory jobs measure above.
func offHeap(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// quantile is the q-th quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// harness is one workload made ready to run jobs: its input, the
// reference the checker compares against, the reusable output buffers
// (one per client) and, for serve, the in-process server.
type harness struct {
	w    workload
	in   *input
	ref  *reference
	outs []*bytes.Buffer
	svc  *service
	// clients is the number of closed-loop clients (1 for library jobs).
	clients int
	// speed is sampled before every set-up repetition and timed round.
	speed speedometer
}

// job runs one job for client c and returns its result unchecked.
func (h *harness) job(c int) (*jobResult, error) {
	if h.svc != nil {
		return runSession(tsyncd.NewClient(tsyncd.ClientConfig{Addr: h.svc.addr, Seed: uint64(c)}), h.in, h.outs[c])
	}
	return h.w.runDirect(h.in, h.outs[c])
}

// checked runs one job and the checker.
func (h *harness) checked(c int) (*jobResult, error) {
	r, err := h.job(c)
	if err != nil {
		return nil, err
	}
	return r, h.w.check(h.in, h.ref, r)
}

// close stops the server, if there is one; a second call does nothing.
func (h *harness) close() error {
	if h.svc == nil {
		return nil
	}
	svc := h.svc
	h.svc = nil
	return svc.stop()
}

// setUp generates the workload's input cfg.setups times, computing the
// reference after the first and ending each repetition in one checked
// warm-up job. It returns the harness, each repetition's time (input
// generation plus the warm-up job) and the reference run's own time.
func setUp(index int, cfg config) (h *harness, setupS []float64, referenceS float64, err error) {
	w := workloads[index]
	h = &harness{w: w, clients: max(w.clients, 1), speed: speedometer{scale: cfg.scale}}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	if w.clients > 0 {
		if h.svc, err = startService(tsyncd.Config{MaxSessions: w.clients}); err != nil {
			return nil, nil, 0, err
		}
	}
	for i := 0; i < cfg.setups; i++ {
		h.speed.sample()
		sw := startWatch()
		in, err := w.generate(index, cfg.seed, cfg.scale)
		if err != nil {
			return nil, nil, 0, err
		}
		d, _ := sw.stop()
		if h.in == nil {
			sw = startWatch()
			if h.ref, err = w.computeReference(in); err != nil {
				return nil, nil, 0, err
			}
			ref, _ := sw.stop()
			referenceS = ref.Seconds()
			data, err := offHeap(len(in.data))
			if err != nil {
				return nil, nil, 0, err
			}
			copy(data, in.data)
			in.data, h.in = data, in
			for c := 0; c < h.clients; c++ {
				// exactly the reference's size, so a job never grows it
				out, err := offHeap(h.ref.outBytes)
				if err != nil {
					return nil, nil, 0, err
				}
				h.outs = append(h.outs, bytes.NewBuffer(out[:0]))
			}
		} else if !bytes.Equal(in.data, h.in.data) {
			return nil, nil, 0, errors.New("the same seed generated different inputs")
		}
		runtime.GC()
		sw = startWatch()
		_, err = h.checked(0)
		warm, _ := sw.stop()
		d += warm
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: warm-up job %d: %w", w.name, i, err)
		}
		setupS = append(setupS, d.Seconds())
	}
	return h, setupS, referenceS, nil
}

// closedLoop runs rounds until the loop has lasted for lasts and atLeast
// rounds are done; a client sends its next job only after the reply to
// its last. Before every round, with no job in flight and the server
// idle, it collects garbage and samples the speed kernel into speed, so
// neither runs beside the code under test nor counts in any round's wall
// or CPU time.
func (h *harness) closedLoop(atLeast int, lasts time.Duration, speed *speedometer, job func(client int) (*jobResult, error)) []round {
	var rounds []round
	start := time.Now()
	for n := 0; n < atLeast || time.Since(start) < lasts; n++ {
		runtime.GC()
		speed.sample()
		rounds = append(rounds, h.round(h.clients, job))
	}
	speed.sample()
	return rounds
}

// round releases one job for each of clients at once, waits for them
// all, stops the clocks and only then runs the checker. With one client
// the job runs on the calling goroutine, so that none but the engine's
// run beside it.
func (h *harness) round(clients int, job func(client int) (*jobResult, error)) round {
	timed := func(c int) sample {
		sw := startWatch()
		res, err := job(c)
		s := sample{res: res, err: err}
		s.wall, s.lost = sw.stop()
		return s
	}
	r := round{jobs: make([]sample, clients)}
	cpu0, sw := cpuTime(), startWatch()
	if clients == 1 {
		r.jobs[0] = timed(0)
	} else {
		type done struct {
			client int
			s      sample
		}
		ch := make(chan done, clients)
		for c := range r.jobs {
			go func(c int) { ch <- done{c, timed(c)} }(c)
		}
		for range r.jobs {
			d := <-ch
			r.jobs[d.client] = d.s
		}
	}
	r.wall, r.lost = sw.stop()
	r.cpu = cpuTime() - cpu0
	for c := range r.jobs {
		if s := &r.jobs[c]; s.err == nil {
			s.err = h.w.check(h.in, h.ref, s.res)
		}
	}
	return r
}

const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	heapAllocs  = "/gc/heap/allocs:objects"
)

// memoryJob runs one job with a 5 ms heap sampler beside it and returns
// the peak of heap objects above the post-GC baseline and the objects
// allocated. It reads runtime/metrics, which does not stop the world. The
// job runs at GOGC=10, so that the peak follows the bytes the engine
// keeps live (within a tenth) and not the collector's pacing, which at
// the default lets garbage grow to as much again. On serve it is one
// session too: the peak of two overlapping sessions depends on how their
// uploads and downloads happen to line up (73 to 137 MiB over 15 rounds
// of one run), one session's repeats within 3%.
func (h *harness) memoryJob() (peakBytes, allocs uint64, err error) {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: heapObjects}, {Name: heapAllocs}}
	metrics.Read(s)
	base, allocs0 := s[0].Value.Uint64(), s[1].Value.Uint64()

	stop := make(chan struct{})
	peakCh := make(chan uint64)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		hs := []metrics.Sample{{Name: heapObjects}}
		var peak uint64
		for {
			metrics.Read(hs)
			peak = max(peak, hs[0].Value.Uint64())
			select {
			case <-stop:
				peakCh <- peak
				return
			case <-tick.C:
			}
		}
	}()
	r := h.round(1, h.job)
	metrics.Read(s)
	close(stop)
	peak := max(<-peakCh, s[0].Value.Uint64())
	for _, j := range r.jobs {
		if j.err != nil {
			return 0, 0, j.err
		}
	}
	if peak > base {
		peakBytes = peak - base
	}
	return peakBytes, s[1].Value.Uint64() - allocs0, nil
}

// runEndToEnd is the plain run: set-up, timed phase, memory jobs.
func runEndToEnd(index int, cfg config) (*result, error) {
	e := newEnv(cfg)
	h, setupS, referenceS, err := setUp(index, cfg)
	if err != nil {
		return nil, err
	}
	res, err := h.endToEnd(cfg, setupS, referenceS)
	if err != nil {
		return nil, err
	}
	e.Events, e.Clients = h.in.events, h.clients
	e.Warmups, e.TimedJobs, e.MemoryJobs = cfg.setups, res.Env.TimedJobs, cfg.memJobs
	e.KernelMs = res.Env.KernelMs
	res.Env = e
	return res, nil
}

// endToEnd runs the timed phase (no sampler, no decorators) and the
// memory jobs on a set-up harness, closes it, and derives the seven
// end-to-end metrics. A failed job counts in ops_failed and its events
// are left out of the throughput.
func (h *harness) endToEnd(cfg config, setupS []float64, referenceS float64) (*result, error) {
	rounds := h.closedLoop(cfg.minJobs, time.Duration(cfg.seconds*float64(time.Second)), &h.speed, h.job)

	res := &result{Workload: h.w.name, Metrics: metricSet{}, Extra: metricSet{}}
	fail := func(err error) {
		res.Failed++
		if res.FirstFailure == "" {
			res.FirstFailure = err.Error()
		}
	}
	var walls, raws []float64
	var phase, cpu time.Duration
	for _, r := range rounds {
		phase += r.wall
		cpu += r.cpu
		res.RoundCPUs = append(res.RoundCPUs, r.cpu.Seconds())
		for _, s := range r.jobs {
			res.Attempted++
			if s.err != nil {
				fail(s.err)
				continue
			}
			walls = append(walls, s.wall.Seconds())
			raws = append(raws, (s.wall + s.lost).Seconds())
			res.JobLost = append(res.JobLost, s.lost.Seconds())
		}
	}
	res.JobWalls = walls
	res.Env.TimedJobs = res.Attempted
	attempted := float64(res.Attempted) * float64(h.in.events)

	var peaks, allocs []float64
	for i := 0; i < cfg.memJobs; i++ {
		p, a, err := h.memoryJob()
		res.Attempted++
		if err != nil {
			fail(err)
			continue
		}
		peaks = append(peaks, float64(p)/(1<<20))
		allocs = append(allocs, float64(a)/float64(h.in.events))
	}
	if err := h.close(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	res.Correct = res.Failed == 0
	if len(walls) == 0 || len(peaks) == 0 {
		return res, nil
	}

	passed := float64(len(walls)) * float64(h.in.events)
	f := h.speed.factor()
	res.Env.KernelMs = h.speed.kernelMs()
	res.Metrics["setup_s"] = metric{f * median(setupS), "s"}
	res.Metrics["events_per_s"] = metric{passed / (f * phase.Seconds()), "events/s"}
	res.Metrics["job_s_p50"] = metric{f * median(walls), "s"}
	res.Metrics["job_s_p75"] = metric{f * quantile(walls, 0.75), "s"}
	res.Metrics["cpu_s_per_mevent"] = metric{f * cpu.Seconds() / (attempted / 1e6), "s"}
	res.Metrics["peak_live_heap_mib"] = metric{median(peaks), "MiB"}
	res.Metrics["allocs_per_event"] = metric{median(allocs), "count"}
	// What job_s_p50 was before the two corrections: with the kernel time
	// in the header it shows how much of a move is the machine's.
	res.Extra["raw_job_s_p50"] = metric{median(raws), "s"}
	res.Extra["reference_s"] = metric{referenceS, "s"}
	res.Extra["timed_phase_s"] = metric{phase.Seconds(), "s"}
	return res, nil
}
