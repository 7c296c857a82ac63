package parallel

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// The observability core of the pool: lock-cheap counters and
// fixed-bucket latency histograms, snapshotted as a Metrics value and
// encodable as Prometheus text exposition format. Everything on the
// hot path is a single atomic add — no locks, no allocation — so a
// pool under heavy mixed traffic pays for its own telemetry in
// nanoseconds, not milliseconds.

// histBounds are the upper bounds (in seconds) of the fixed latency
// buckets, exponential-ish from 10µs to 10s. Compiles on this runtime
// run from tens of microseconds (warm cache replays) to tens of
// milliseconds (cold course-sized programs); queue waits under
// overload reach into seconds. One shared bound set keeps every
// histogram family comparable and the Prometheus output compact.
var histBounds = [...]float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation: one atomic add into the owning bucket, one into the
// sum. Bucket i counts observations <= histBounds[i]; the last slot
// counts the +Inf overflow.
type histogram struct {
	buckets [len(histBounds) + 1]atomic.Int64
	sumNs   atomic.Int64
}

// observe files one duration.
func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(histBounds) && s > histBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNs.Add(int64(d))
}

// snapshot captures the histogram as cumulative Prometheus-style
// buckets. The reads are not atomic as a set; each counter is
// monotone, so the snapshot is a consistent-enough point in time for
// scraping (the same guarantee Prometheus client libraries give).
func (h *histogram) snapshot() Histogram {
	var s Histogram
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if i < len(histBounds) {
			s.Buckets[i] = cum
		}
	}
	s.Count = cum
	s.SumSeconds = float64(h.sumNs.Load()) / float64(time.Second)
	return s
}

// Histogram is a point-in-time snapshot of one latency histogram.
// Buckets[i] is the cumulative count of observations <=
// HistogramBounds()[i]; Count includes the +Inf overflow.
type Histogram struct {
	Buckets    [len(histBounds)]int64 `json:"buckets"`
	Count      int64                  `json:"count"`
	SumSeconds float64                `json:"sum_seconds"`
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket
// counts, by linear interpolation inside the owning bucket. Values in
// the +Inf bucket report the largest finite bound. With no
// observations it reports 0.
func (h Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	prev := int64(0)
	lower := 0.0
	for i, cum := range h.Buckets {
		if float64(cum) >= rank {
			width := histBounds[i] - lower
			inBucket := float64(cum - prev)
			if inBucket <= 0 {
				return histBounds[i]
			}
			return lower + width*(rank-float64(prev))/inBucket
		}
		prev = cum
		lower = histBounds[i]
	}
	return histBounds[len(histBounds)-1]
}

// HistogramBounds returns the shared bucket upper bounds in seconds.
func HistogramBounds() []float64 {
	b := make([]float64, len(histBounds))
	copy(b[:], histBounds[:])
	return b
}

// poolMetrics is the pool-side home of the counters that have no
// other owner (admission rejections, latency histograms). Job outcome
// counters live on Pool, cache counters on jobCache; Metrics gathers
// all of them into one snapshot.
type poolMetrics struct {
	queueWait histogram // admission wait, every admitted job
	split     histogram // per-phase latency, completed jobs only
	eval      histogram
	splice    histogram
	wall      histogram
	planSecs  histogram // decomposition planning, completed jobs only

	rejectedOverload atomic.Int64
	rejectedQuota    atomic.Int64
	rejectedClosed   atomic.Int64

	// Plan observability: completed jobs by chosen decomposition width
	// (slot 0 collects widths beyond the last bucket).
	planWidth [maxPlanWidthBucket + 1]atomic.Int64
}

// maxPlanWidthBucket is the largest decomposition width with its own
// slot in the chosen-width histogram; wider jobs share the overflow
// slot. 32 covers every realistic core count; wider requests
// oversubscribe the pool, which sets no upper bound on the width.
const maxPlanWidthBucket = 32

// observePlan files one completed job's planning outcome.
func (m *poolMetrics) observePlan(ps *PlanStats) {
	m.planSecs.observe(ps.PlanTime)
	w := ps.Width
	if w < 1 || w > maxPlanWidthBucket {
		w = 0
	}
	m.planWidth[w].Add(1)
}

// Metrics is a point-in-time snapshot of everything the pool can say
// about itself: the activity/cache counters of PoolStats plus the
// admission-rejection counters and the latency histograms. Encode it
// for scraping with WritePrometheus.
type Metrics struct {
	PoolStats

	// RejectedOverload counts jobs refused because MaxInFlight jobs
	// were evaluating and the admission queue was full;
	// RejectedQuota jobs refused because their client was at its
	// per-client quota; RejectedClosed jobs refused by a closed pool.
	RejectedOverload int64 `json:"rejected_overload"`
	RejectedQuota    int64 `json:"rejected_quota"`
	RejectedClosed   int64 `json:"rejected_closed"`

	// Fleet snapshots the distributed backend's counters when the pool
	// routes jobs to one (PoolOptions.Remote); nil on a local pool.
	Fleet *FleetStats `json:"fleet,omitempty"`

	// Plan observability: completed jobs by chosen width (key 0
	// collects widths beyond the last tracked bucket).
	PlanWidths map[int]int64 `json:"plan_widths,omitempty"`

	// QueueWait is the admission latency of every admitted job (how
	// long Compile blocked before the pool let it in). The phase
	// histograms cover completed jobs only: Split is decomposition and
	// fragment setup, Eval parallel attribute evaluation, Splice final
	// program assembly, Wall the whole job, PlanTime decomposition
	// planning (cut selection, a slice of Split).
	QueueWait Histogram `json:"queue_wait"`
	Split     Histogram `json:"split"`
	Eval      Histogram `json:"eval"`
	Splice    Histogram `json:"splice"`
	Wall      Histogram `json:"wall"`
	PlanTime  Histogram `json:"plan_time"`
}

// Metrics returns the pool's full observability snapshot.
func (p *Pool) Metrics() Metrics {
	var fleet *FleetStats
	if p.remote != nil {
		fs := p.remote.FleetStats()
		fleet = &fs
	}
	m := Metrics{
		PoolStats:        p.Stats(),
		Fleet:            fleet,
		RejectedOverload: p.m.rejectedOverload.Load(),
		RejectedQuota:    p.m.rejectedQuota.Load(),
		RejectedClosed:   p.m.rejectedClosed.Load(),
		QueueWait:        p.m.queueWait.snapshot(),
		Split:            p.m.split.snapshot(),
		Eval:             p.m.eval.snapshot(),
		Splice:           p.m.splice.snapshot(),
		Wall:             p.m.wall.snapshot(),
		PlanTime:         p.m.planSecs.snapshot(),
	}
	for w := range p.m.planWidth {
		if n := p.m.planWidth[w].Load(); n > 0 {
			if m.PlanWidths == nil {
				m.PlanWidths = make(map[int]int64)
			}
			m.PlanWidths[w] = n
		}
	}
	return m
}

// WritePrometheus encodes the snapshot in Prometheus text exposition
// format (version 0.0.4). Series:
//
//	pag_jobs_total{outcome="done"|"failed"|"cancelled"}   counter
//	pag_admission_rejected_total{reason="overloaded"|"quota"|"closed"}
//	pag_in_flight, pag_queue_depth{priority="high"|"low"} gauges
//	pag_workers, pag_max_in_flight                        gauges
//	pag_cache_{hits,misses,evictions}_total               counters
//	pag_cache_{entries,bytes,cap_bytes}                   gauges
//	pag_plan_width_total{width="N"}                       counter
//	pag_plan_balance                                      gauge
//	pag_messages_total                                    counter
//	pag_queue_wait_seconds                                histogram
//	pag_phase_seconds{phase="split"|"eval"|"splice"}      histogram
//	pag_job_wall_seconds                                  histogram
//	pag_plan_seconds                                      histogram
func (m Metrics) WritePrometheus(w io.Writer) error {
	b := &promWriter{w: w}
	b.head("pag_jobs_total", "counter", "Jobs finished, by outcome.")
	b.val(`pag_jobs_total{outcome="done"}`, float64(m.Done))
	b.val(`pag_jobs_total{outcome="failed"}`, float64(m.Failed))
	b.val(`pag_jobs_total{outcome="cancelled"}`, float64(m.Cancelled))

	b.head("pag_admission_rejected_total", "counter", "Jobs rejected at admission, by reason.")
	b.val(`pag_admission_rejected_total{reason="overloaded"}`, float64(m.RejectedOverload))
	b.val(`pag_admission_rejected_total{reason="quota"}`, float64(m.RejectedQuota))
	b.val(`pag_admission_rejected_total{reason="closed"}`, float64(m.RejectedClosed))

	b.head("pag_in_flight", "gauge", "Jobs currently evaluating.")
	b.val("pag_in_flight", float64(m.InFlight))
	b.head("pag_queue_depth", "gauge", "Jobs waiting for admission, by priority class.")
	b.val(`pag_queue_depth{priority="high"}`, float64(m.WaitingHigh))
	b.val(`pag_queue_depth{priority="low"}`, float64(m.WaitingLow))
	b.head("pag_workers", "gauge", "Pool worker goroutines.")
	b.val("pag_workers", float64(m.Workers))
	b.head("pag_max_in_flight", "gauge", "Admission bound on concurrently evaluating jobs.")
	b.val("pag_max_in_flight", float64(m.MaxInFlight))

	b.head("pag_cache_hits_total", "counter", "Whole-job cache hits.")
	b.val("pag_cache_hits_total", float64(m.CacheHits))
	b.head("pag_cache_misses_total", "counter", "Whole-job cache misses.")
	b.val("pag_cache_misses_total", float64(m.CacheMisses))
	b.head("pag_cache_evictions_total", "counter", "Whole-job cache recordings evicted for space.")
	b.val("pag_cache_evictions_total", float64(m.CacheEvicted))
	b.head("pag_cache_entries", "gauge", "Whole-job cache entries resident.")
	b.val("pag_cache_entries", float64(m.CacheEntries))
	b.head("pag_cache_bytes", "gauge", "Whole-job cache bytes resident.")
	b.val("pag_cache_bytes", float64(m.CacheBytes))
	b.head("pag_cache_cap_bytes", "gauge", "Whole-job cache byte budget.")
	b.val("pag_cache_cap_bytes", float64(m.CacheCapBytes))
	b.head("pag_cache_disk_hits_total", "counter", "Whole-job recordings loaded from the persistent cache.")
	b.val("pag_cache_disk_hits_total", float64(m.DiskHits))
	b.head("pag_cache_disk_writes_total", "counter", "Whole-job recordings spilled to the persistent cache.")
	b.val("pag_cache_disk_writes_total", float64(m.DiskWrites))
	b.head("pag_cache_disk_errors_total", "counter", "Persistent-cache operations that failed (corrupt or undecodable entries skipped, I/O errors).")
	b.val("pag_cache_disk_errors_total", float64(m.DiskErrors))

	if len(m.PlanWidths) > 0 {
		b.head("pag_plan_width_total", "counter", "Completed jobs by chosen decomposition width (0 = beyond the last bucket).")
		for w := 0; w <= maxPlanWidthBucket; w++ {
			if n, ok := m.PlanWidths[w]; ok {
				b.val(fmt.Sprintf(`pag_plan_width_total{width="%d"}`, w), float64(n))
			}
		}
	}
	b.head("pag_plan_balance", "gauge", "Size balance of the most recent decomposition (1 = perfectly even).")
	b.val("pag_plan_balance", m.LastBalance)
	b.head("pag_messages_total", "counter", "Cross-fragment attribute messages across completed jobs.")
	b.val("pag_messages_total", float64(m.MessagesTotal))

	if f := m.Fleet; f != nil {
		b.head("pag_fleet_workers", "gauge", "Configured fleet workers.")
		b.val("pag_fleet_workers", float64(f.Workers))
		b.head("pag_fleet_workers_ready", "gauge", "Fleet workers currently routable.")
		b.val("pag_fleet_workers_ready", float64(f.ReadyWorkers))
		b.head("pag_fleet_remote_fragments_total", "counter", "Fragments evaluated on remote fleet workers.")
		b.val("pag_fleet_remote_fragments_total", float64(f.RemoteFrags))
		b.head("pag_fleet_local_fragments_total", "counter", "Fragments evaluated by the in-process fallback worker.")
		b.val("pag_fleet_local_fragments_total", float64(f.LocalFrags))
		b.head("pag_fleet_retries_total", "counter", "Fleet RPC attempts beyond the first against a live placement.")
		b.val("pag_fleet_retries_total", float64(f.Retries))
		b.head("pag_fleet_requeues_total", "counter", "Fragments re-placed on another worker after losing theirs.")
		b.val("pag_fleet_requeues_total", float64(f.Requeues))
		b.head("pag_fleet_corrupt_responses_total", "counter", "Worker responses failing the wire integrity check, discarded.")
		b.val("pag_fleet_corrupt_responses_total", float64(f.CorruptResponses))
		b.head("pag_fleet_worker_transitions_total", "counter", "Worker health-state transitions observed.")
		b.val("pag_fleet_worker_transitions_total", float64(f.WorkerTransitions))
		b.head("pag_fleet_degraded_jobs_total", "counter", "Jobs that degraded to local evaluation with a fleet configured.")
		b.val("pag_fleet_degraded_jobs_total", float64(f.DegradedJobs))
	}

	b.hist("pag_queue_wait_seconds", "", "Admission wait of admitted jobs.", m.QueueWait)
	b.hist("pag_phase_seconds", `phase="split"`, "Per-phase latency of completed jobs.", m.Split)
	b.hist("pag_phase_seconds", `phase="eval"`, "", m.Eval)
	b.hist("pag_phase_seconds", `phase="splice"`, "", m.Splice)
	b.hist("pag_job_wall_seconds", "", "Wall time of completed jobs.", m.Wall)
	b.hist("pag_plan_seconds", "", "Decomposition planning time of completed jobs.", m.PlanTime)
	return b.err
}

// promWriter accumulates exposition lines, remembering the first
// write error so the encoder body stays linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (b *promWriter) printf(format string, args ...any) {
	if b.err != nil {
		return
	}
	_, b.err = fmt.Fprintf(b.w, format, args...)
}

func (b *promWriter) head(name, typ, help string) {
	if help != "" {
		b.printf("# HELP %s %s\n", name, help)
	}
	b.printf("# TYPE %s %s\n", name, typ)
}

func (b *promWriter) val(series string, v float64) {
	b.printf("%s %g\n", series, v)
}

// hist emits one histogram series set (bucket/sum/count), with an
// optional extra label pair shared by every line.
func (b *promWriter) hist(name, label, help string, h Histogram) {
	if help != "" {
		b.head(name, "histogram", help)
	}
	sep := ""
	if label != "" {
		sep = ","
	}
	for i, cum := range h.Buckets {
		b.printf("%s_bucket{%s%sle=\"%g\"} %d\n", name, label, sep, histBounds[i], cum)
	}
	b.printf("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, label, sep, h.Count)
	if label != "" {
		b.printf("%s_sum{%s} %g\n", name, label, h.SumSeconds)
		b.printf("%s_count{%s} %d\n", name, label, h.Count)
	} else {
		b.printf("%s_sum %g\n", name, h.SumSeconds)
		b.printf("%s_count %d\n", name, h.Count)
	}
}
