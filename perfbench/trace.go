package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pag/internal/parallel"
)

// span is one timed interval of the benchmark's own recorder: a call
// into a layer, or a phase of it taken from the durations the layer
// reported. Spans of one job share its id; parent indexes the span
// that caused this one (-1 for the job's root span).
type span struct {
	job        int
	name       string
	parent     int
	start, end time.Duration // offsets from the recorder's origin
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced phases run the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished interval and returns its index.
func (r *recorder) add(job int, name string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{job: job, name: name, parent: parent, start: start.Sub(r.t0), end: end.Sub(r.t0)})
	return len(r.spans) - 1
}

// write saves the spans as JSON lines, times in microseconds from the
// recorder's origin.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i, s := range r.spans {
		err := enc.Encode(struct {
			ID     int    `json:"id"`
			Job    int    `json:"job"`
			Name   string `json:"name"`
			Parent int    `json:"parent"`
			Start  int64  `json:"start_us"`
			End    int64  `json:"end_us"`
		}{i, s.job, s.name, s.parent, s.start.Microseconds(), s.end.Microseconds()})
		if err != nil {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// phases records a pool compile's queue, split, eval and splice
// children under the compile span, laid end to end from the call's
// start: queue is the call's duration minus the job's wall time.
func (r *recorder) phases(job, parent int, start time.Time, callDur time.Duration, res *parallel.Result) {
	if r == nil || res == nil {
		return
	}
	t := start
	for _, p := range []struct {
		name string
		d    time.Duration
	}{
		{"parallel.queue", max(callDur-res.WallTime, 0)},
		{"parallel.split", res.SplitTime},
		{"parallel.eval", res.EvalTime},
		{"parallel.splice", res.SpliceTime},
	} {
		r.add(job, p.name, parent, t, t.Add(p.d))
		t = t.Add(p.d)
	}
}

// selfTimes returns, per span name, the mean self time per job in
// milliseconds: a span's duration minus the part of it its children
// cover. Over the root spans this is the blocking path's budget by
// layer.
func (r *recorder) selfTimes() (perJob map[string]float64, jobs int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		} else if s.name == "job" {
			jobs++
		}
	}
	perJob = make(map[string]float64)
	for i, s := range r.spans {
		covered := union(r.spans, children[i], s.start, s.end)
		perJob[s.name] += ms(s.end - s.start - covered)
	}
	for k := range perJob {
		perJob[k] /= float64(max(jobs, 1))
	}
	return perJob, jobs
}

// union is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func union(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, i := range idx {
		a, b := max(spans[i].start, lo), min(spans[i].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfLayers maps recorder span names to the self-time metrics.
var selfLayers = map[string]string{
	"client.wait":     "self.wait_ms",
	"pascal.parse":    "self.parse_ms",
	"parallel.queue":  "self.queue_ms",
	"parallel.split":  "self.split_ms",
	"parallel.eval":   "self.eval_ms",
	"parallel.splice": "self.splice_ms",
	"pagd.wall":       "self.server_ms",
	"pagd.request":    "self.http_ms",
	"check":           "self.check_ms",
	"job":             "self.other_ms",
}

// addSelfTimes puts the recorder's per-layer self times on the sheet
// and keeps the recorder on the outcome, whose spans are written out
// when the run ends.
func addSelfTimes(r *recorder, out *outcome) {
	out.spans = r
	s := &out.metrics
	per, jobs := r.selfTimes()
	names := make([]string, 0, len(selfLayers))
	for name := range selfLayers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.add(selfLayers[name], "ms", per[name], jobs)
	}
}
