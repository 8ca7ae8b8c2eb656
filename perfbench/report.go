package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The end-to-end metrics of the result line, in report order.
// throughput_per_s and failed_ratio are printed on the report only (see
// METRICS.md); failed_ratio is carried in the result line by attempted
// and failed.
var endToEnd = []struct{ name, unit string }{
	{"cpu_us_per_request", "us"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// The per-layer metrics of the traced run, in report order. Every
// traced run prints all of them; a layer the workload does not run
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"history.parse_us", "us"},
	{"history.parse_share", "ratio"},
	{"checkpool.wait_us", "us"},
	{"checkpool.wait_share", "ratio"},
	{"checkpool.line_us", "us"},
	{"checkpool.line_share", "ratio"},
	{"checkpool.busy_share", "ratio"},
	{"checkpool.speedup_2v1", "x"},
	{"core.check_us", "us"},
	{"core.check_share", "ratio"},
	{"core.nodes_per_history", "count"},
	{"core.opaque_share", "ratio"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.trans_hit_ratio", "ratio"},
	{"core.states_interned", "count"},
	{"core.memo_entries", "count"},
	{"core.sym_prunes_per_history", "count"},
	{"core.sym_classes", "count"},
	{"core.legal_skips_per_history", "count"},
	{"core.budget_exhausted", "count"},
	{"monitor.append_p50_us", "us"},
	{"monitor.append_p99_us", "us"},
	{"monitor.append_share", "ratio"},
	{"monitor.fastpath_ratio", "ratio"},
	{"monitor.skipped_share", "ratio"},
	{"monitor.nodes_per_event", "count"},
	{"monitor.checkpoints", "count"},
	{"monitor.trunc_nodes_per_checkpoint", "count"},
	{"monitor.live_events_max", "count"},
	{"monitor.table_states", "count"},
	{"monitor.table_memo_entries", "count"},
	{"stm.op_self_us", "us"},
	{"stm.op_share", "ratio"},
	{"stm.abort_ratio", "ratio"},
	{"controlplane.scrape_us", "us"},
	{"telemetry.scrape_bytes", "bytes"},
	{"runtime.alloc_kb_per_request", "KB"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.heap_inuse_mb", "MB"},
	{"trace.overhead", "x"},
}

// emit prints the named metrics, one per line, the report's other
// lines and failed_ratio, then the result line.
func emit(w io.Writer, names []struct{ name, unit string }, rep *report, correct bool) error {
	res := result{Correct: correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metric, len(names))}
	for _, m := range names {
		v, ok := rep.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "%-36s %14.6g %-6s %s\n", m.name, v, m.unit, rep.notes[m.name])
	}
	for _, line := range rep.info {
		fmt.Fprintln(w, line)
	}
	ratio := 0.0
	if rep.attempted > 0 {
		ratio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "%-36s %14.6g %-6s (%d of %d requests)\n", "failed_ratio", ratio, "ratio", rep.failed, rep.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// passSeries holds the figures of the passes of a timed phase. Every
// pass does the same work: the same histories, or the same script
// operations in the same order. Throughput and CPU time per request are
// reported as medians over passes. A request's latency is the median of
// its times over the passes, and the latency quantiles are taken over
// requests: a pass slowed by another tenant of the machine, or a request
// that happened to meet a collection, moves them little, while a request
// that is slow every time stays in the tail. The CPU time is what keeps
// the collections and everything around the timed calls in view.
type passSeries struct {
	throughput []float64 // requests per second, per pass
	cpu        []float64 // process CPU time per request (ns), per pass
	byRequest  [][]int64 // per pass, each request's latency (ns) by request index
}

// add records one pass that took wall and used cpu of process CPU time,
// with each request's latency (ns) indexed by request.
func (s *passSeries) add(wall, cpu time.Duration, latency []int64) {
	n := float64(len(latency))
	s.throughput = append(s.throughput, n/wall.Seconds())
	s.cpu = append(s.cpu, float64(cpu)/n)
	s.byRequest = append(s.byRequest, latency)
}

// latencies returns every request's median latency over the passes
// (ns), or an error if the passes did not all run the same requests.
func (s *passSeries) latencies() ([]int64, error) {
	if len(s.byRequest) == 0 {
		return nil, nil
	}
	n := len(s.byRequest[0])
	out := make([]int64, n)
	times := make([]float64, len(s.byRequest))
	for i := range out {
		for p, pass := range s.byRequest {
			if len(pass) != n {
				return nil, fmt.Errorf("pass %d ran %d requests, pass 1 ran %d", p+1, len(pass), n)
			}
			times[p] = float64(pass[i])
		}
		out[i] = int64(median(times))
	}
	return out, nil
}

// quantileNs returns the q-quantile (nearest rank) of xs, sorting xs in
// place.
func quantileNs(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	i := int(q*float64(len(xs))+0.5) - 1
	i = max(0, min(i, len(xs)-1))
	return float64(xs[i])
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread renders the minimum, median and maximum of xs.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.6g/%.6g/%.6g (min/median/max)", slices.Min(xs), median(xs), slices.Max(xs))
}

// cpuTime returns the CPU time the process has used so far, user and
// system, on every thread: the benchmark's goroutines, the program's and
// the garbage collector's. Under a kernel with paravirtual steal
// accounting, time the hypervisor gives to another tenant is not charged
// to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC
// counters.
type runtimeSample struct {
	totalAlloc uint64
	gcCPU      float64
	totalCPU   float64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSample{totalAlloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// runtimeUse accumulates the runtime counters over the measured
// stretches of a phase.
type runtimeUse struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	heapMax         uint64 // largest in-use heap seen between passes
}

func (u *runtimeUse) add(a, b runtimeSample) {
	u.allocBytes += b.totalAlloc - a.totalAlloc
	u.gcCPU += b.gcCPU - a.gcCPU
	u.totalCPU += b.totalCPU - a.totalCPU
}

// noteHeap samples the in-use heap.
func (u *runtimeUse) noteHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.heapMax = max(u.heapMax, ms.HeapInuse)
}

// values returns the runtime.* per-layer metrics for requests requests.
func (u *runtimeUse) values(requests int64, into map[string]float64) {
	into["runtime.alloc_kb_per_request"] = 0
	if requests > 0 {
		into["runtime.alloc_kb_per_request"] = float64(u.allocBytes) / 1024 / float64(requests)
	}
	into["runtime.gc_cpu_share"] = 0
	if u.totalCPU > 0 {
		into["runtime.gc_cpu_share"] = u.gcCPU / u.totalCPU
	}
	into["runtime.heap_inuse_mb"] = float64(u.heapMax) / (1 << 20)
}
