// Command perfbench is the repository's end-to-end benchmark: three
// loopback workloads (bulk, striped, tasks) driven through the real
// runtime, every delivered byte checked, and a traced mode that times each
// layer from outside through its public functions. WORKLOADS.md says why
// each workload exists and which end-to-end metric each layer metric
// should move.
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). A failed correctness check exits non-zero after printing it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit; the lists mirror
// BENCHMARK.json (a test holds them equal).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"goodput_mbps", "MB/s"},
	{"xfer_ms_p50", "ms"},
	{"xfer_ms_p90", "ms"},
	{"task_ms_p50", "ms"},
	{"task_ms_p90", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricSpec{
	{"core.send_ns_per_pkt", "ns/pkt"},
	{"core.recv_ns_per_pkt", "ns/pkt"},
	{"core.contentid_us_per_mib", "us/MiB"},
	{"wire.data_encode_ns", "ns"},
	{"wire.data_decode_ns", "ns"},
	{"wire.ack_decode_ns", "ns"},
	{"batchio.pump_pkts_per_s", "pkt/s"},
	{"batchio.send_fill", "dgram/call"},
	{"batchio.recv_fill", "dgram/call"},
	{"udprt.waste_frac", "ratio"},
	{"udprt.acks_per_mib", "ack/MiB"},
	{"udprt.stalls", "count"},
	{"udprt.handshake_ms", "ms"},
	{"udprt.rounds_ms", "ms"},
	{"udprt.verify_ms", "ms"},
	{"udprt.stripe_skew_ms", "ms"},
	{"udprt.listen_ms", "ms"},
	{"udprt.small_send_ms", "ms"},
	{"udprt.dedup_hit_ms", "ms"},
	{"udprt.dedup_hit_frac", "ratio"},
	{"checkpoint.write_ms", "ms"},
	{"tasks.submit_ms", "ms"},
	{"tasks.queue_wait_ms_p50", "ms"},
	{"tasks.queue_wait_ms_p90", "ms"},
	{"tasks.mover_ms_p50", "ms"},
	{"tasks.attempts_per_task", "count"},
	{"obs.trace_overhead_frac", "ratio"},
	{"udprt.alloc_mb_per_op", "MB/op"},
	{"bench.gen_late_ms", "ms"},
}

// params is one workload's shape. The same code runs the full-size
// workloads and the tiny ones the smoke tests use.
type params struct {
	name     string
	tasks    bool // open-loop daemon workload; otherwise closed-loop transfers
	seed     int64
	duration time.Duration // the measuring window
	setups   int           // set-up repetitions; setup_s is their median

	// Closed-loop transfers.
	objectSize int
	streams    int
	warmSize   int

	// Open-loop tasks.
	rate             float64 // submissions per second
	minFile, maxFile int
	hotSet           int // objects repeated after their first delivery
	hotEvery         int // about one submission in hotEvery repeats one
	workers          int
}

// workloads are the benchmark's fixed workloads; WORKLOADS.md gives the
// reason for each.
var workloads = map[string]params{
	"bulk":    {name: "bulk", setups: 41, objectSize: 32 << 20, streams: 1, warmSize: 4 << 20},
	"striped": {name: "striped", setups: 41, objectSize: 32 << 20, streams: 2, warmSize: 4 << 20},
	"tasks": {name: "tasks", tasks: true, setups: 41, rate: 100,
		minFile: 4 << 10, maxFile: 64 << 10, hotSet: 8, hotEvery: 4, workers: 2},
}

// tasksShape is the tasks workload's input shape, which the traced runs
// of the other workloads also probe (small sends, dedup hits, dispatch).
func tasksShape(p params) params {
	t := workloads["tasks"]
	t.seed = p.seed
	return t
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	errs              []string
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// op records one attempted operation and reports whether it succeeded:
// an op with any problem counts once in failed, and its problems are
// printed with the result.
func (r *report) op(what string, problems []string) bool {
	r.attempted++
	if len(problems) == 0 {
		return true
	}
	r.failed++
	for _, p := range problems {
		if len(r.errs) < 20 {
			r.errs = append(r.errs, what+": "+p)
		}
	}
	return false
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(key, value string) { r.notes = append(r.notes, key+"="+value) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if runSetupProbe() {
		return
	}
	workload := flag.String("workload", "", "bulk, striped or tasks")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measuring window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	p, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload bulk|striped|tasks --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	p.seed = *seed
	p.duration = time.Duration(*seconds) * time.Second

	// Scratch files (task inputs, daemon state) stay inside the checkout.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	// Bound the whole run, so a hung transfer fails it instead of hanging.
	// Set-ups, warm-ups, drains and the traced run's ladder add to the
	// measuring window, hence the margin.
	ctx, cancel := context.WithTimeout(context.Background(), 3*p.duration+60*time.Second)
	defer cancel()

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", p.name, p.seed, *seconds, *trace)
	fmt.Println("provenance", provenance(p))
	rep := newReport()
	if err := run(ctx, p, dir, *trace == 1, rep); err != nil {
		fatal(err)
	}
	os.RemoveAll(dir)
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	if !emit(rep, specs) {
		os.Exit(1)
	}
}

// run measures one workload into rep: the end-to-end metrics untraced,
// or the per-layer metrics from a traced run.
func run(ctx context.Context, p params, dir string, traced bool, rep *report) error {
	if traced {
		return tracedRun(ctx, p, dir, rep)
	}
	if p.tasks {
		if err := measureTasks(ctx, p, dir, rep); err != nil {
			return err
		}
	} else if err := measureTransfers(ctx, p, dir, rep); err != nil {
		return err
	}
	rep.set("rss_peak_mb", rssPeakMB())
	return nil
}

// unmeasured lists the metrics of specs that rep lacks or holds as NaN.
func unmeasured(rep *report, specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		if v, ok := rep.values[s.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out = append(out, s.name)
		}
	}
	return out
}

// emit prints the human-readable lines, then the result object as the
// last line, and reports whether the run was correct: no failed op and
// every metric measured.
func emit(rep *report, specs []metricSpec) bool {
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue)}
	missing := unmeasured(rep, specs)
	for _, s := range specs {
		if v := rep.values[s.name]; !slices.Contains(missing, s.name) {
			res.Metrics[s.name] = metricValue{v, s.unit}
			fmt.Printf("  %-28s %14.4f %s\n", s.name, v, s.unit)
		}
	}
	fmt.Printf("  %-28s %14.4f ratio (%d failed of %d attempted)\n", "ops_failed_frac",
		ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Println("  note", n)
	}
	for _, e := range rep.errs {
		fmt.Println("  error", e)
	}
	if len(missing) > 0 {
		fmt.Println("  error not measured:", strings.Join(missing, ", "))
	}
	res.Correct = rep.failed == 0 && len(missing) == 0 && rep.attempted > 0
	if rep.attempted == 0 {
		res.Attempted = 1 // the contract needs a positive count; nothing ran, so it failed
		res.Failed = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return res.Correct
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// rssPeakMB is the process's peak resident set (Linux reports ru_maxrss
// in KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// provenance names the host and build a result came from.
func provenance(p params) string {
	prov := map[string]any{
		"workload":   p.name,
		"seed":       p.seed,
		"seconds":    p.duration.Seconds(),
		"path":       "loopback, one process",
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel(),
		"commit":     commit(),
	}
	if p.tasks {
		prov["offered_tasks_per_s"] = p.rate
	}
	b, _ := json.Marshal(prov) // a map of strings and numbers always encodes
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile(filepath.Join("/proc", "cpuinfo"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// commit is the VCS revision stamped into the build, "unknown" when the
// benchmark was built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}
