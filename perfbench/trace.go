package main

// Span tracing. Spans are recorded only by this benchmark, around its
// calls into each layer; nothing inside the program is instrumented.
// They are kept in memory and written out once the run ends.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanKind names a layer boundary.
type spanKind int8

const (
	spanNone    spanKind = iota - 1
	spanRequest          // batch: one history, from admission to verdict line emitted
	spanParse            // history.Parse
	spanCheck            // the checker call the pool makes (core.Check)
	spanLine             // checkpool.Verdict.Line
	spanOp               // monitor: one STM operation call (Read, Write or Commit)
	spanAppend           // controlplane.Member.Append, nested in an op
	spanScrape           // controlplane.Fleet.Handler serving /metrics
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"checkpool.request", "history.parse", "core.check", "checkpool.line",
	"stm.op", "monitor.append", "controlplane.scrape",
}

func (k spanKind) String() string {
	if k < 0 || k >= numSpanKinds {
		return "-"
	}
	return spanNames[k]
}

// span is one recorded interval. A request has exactly one root span
// (parent spanNone); its children carry the same request id and name the
// root's kind as parent.
type span struct {
	kind       spanKind
	parent     spanKind
	req        int32
	start, end int64 // nanoseconds since the tracer's base
}

// tracer collects spans from any goroutine. Untraced runs pass a nil
// *tracer, which callers check at each boundary.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now returns the monotonic time since the tracer's base.
func (t *tracer) now() int64 { return t.at(time.Now()) }

// at converts a reading of the monotonic clock to the tracer's base.
func (t *tracer) at(when time.Time) int64 { return int64(when.Sub(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerTimes is the self-time account of one traced phase.
type layerTimes struct {
	self  [numSpanKinds][]int64 // per-span self times, by kind
	roots [numSpanKinds]int64   // summed root durations, by root kind
	// rootOf is the root kind each kind's spans hang under.
	rootOf [numSpanKinds]spanKind
	// bad counts spans that break the tree: a child outside its root's
	// interval, overlapping a sibling, or without a root.
	bad int
}

// analyze computes every span's self time — its duration minus the part
// its children cover — and validates that children nest inside their
// root without overlapping, so the self times of a request add up to
// the request's duration exactly.
func (t *tracer) analyze() *layerTimes {
	lt := &layerTimes{}
	for k := range lt.rootOf {
		lt.rootOf[k] = spanNone
	}
	type tree struct {
		root     int
		children []int
	}
	trees := make(map[int32]*tree)
	get := func(req int32) *tree {
		tr := trees[req]
		if tr == nil {
			tr = &tree{root: -1}
			trees[req] = tr
		}
		return tr
	}
	for i, s := range t.spans {
		tr := get(s.req)
		if s.parent == spanNone {
			if tr.root >= 0 {
				lt.bad++
			}
			tr.root = i
		} else {
			tr.children = append(tr.children, i)
		}
	}
	reqs := make([]int32, 0, len(trees))
	for req := range trees {
		reqs = append(reqs, req)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	for _, req := range reqs {
		tr := trees[req]
		if tr.root < 0 {
			lt.bad += len(tr.children)
			continue
		}
		root := t.spans[tr.root]
		sort.Slice(tr.children, func(i, j int) bool { return t.spans[tr.children[i]].start < t.spans[tr.children[j]].start })
		covered, prevEnd := int64(0), root.start
		for _, c := range tr.children {
			s := t.spans[c]
			if s.parent != root.kind || s.start < prevEnd || s.end > root.end || s.end < s.start {
				lt.bad++
			}
			prevEnd = s.end
			covered += s.end - s.start
			lt.self[s.kind] = append(lt.self[s.kind], s.end-s.start)
			lt.rootOf[s.kind] = root.kind
		}
		d := root.end - root.start
		lt.self[root.kind] = append(lt.self[root.kind], d-covered)
		lt.roots[root.kind] += d
		lt.rootOf[root.kind] = root.kind
	}
	return lt
}

// mean returns the mean self time of kind in microseconds (0 if the
// layer recorded nothing).
func (lt *layerTimes) mean(k spanKind) float64 {
	xs := lt.self[k]
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs)) / 1e3
}

// quantile returns the q-quantile of kind's self times in microseconds.
func (lt *layerTimes) quantile(k spanKind, q float64) float64 {
	return quantileNs(lt.self[k], q) / 1e3
}

// share returns kind's summed self time over the summed duration of the
// requests it belongs to.
func (lt *layerTimes) share(k spanKind) float64 {
	root := lt.rootOf[k]
	if root == spanNone || lt.roots[root] == 0 {
		return 0
	}
	var sum int64
	for _, x := range lt.self[k] {
		sum += x
	}
	return float64(sum) / float64(lt.roots[root])
}

// write stores the spans as tab-separated text — name, start and end in
// nanoseconds, parent name, request id — in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# name\tstart_ns\tend_ns\tparent\treq")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\n", s.kind, s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
