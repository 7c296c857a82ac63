package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0 when the denominator is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rateChunks is how many runs of consecutive jobs busyRate cuts a
// measured loop into.
const rateChunks = 16

// busyRate is a closed loop's throughput over the time it spent in
// jobs, so the host calibration between jobs does not count, and a
// stall in a minority of the run does not move it: the job times
// (in ms, in completion order) are cut into rateChunks runs of
// consecutive jobs, each run's rate is its jobs over its summed time,
// and the figure is the median rate in jobs per second.
func busyRate(lat []float64) float64 {
	k := max(1, len(lat)/rateChunks)
	var rates []float64
	for i := 0; i+k <= len(lat); i += k {
		sum := 0.0
		for _, x := range lat[i : i+k] {
			sum += x
		}
		rates = append(rates, ratio(float64(k), sum/1000))
	}
	return median(rates)
}

// medianSetup runs setup n times and returns the median duration in
// seconds. Each repetition starts right after a collection, so the
// benchmark's own garbage collector does not run beside it, and the
// median keeps one slow start from moving the figure. The host, if
// given, is sampled after every repetition.
func medianSetup(n int, host *hostMeter, setup func() (time.Duration, error)) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		d, err := setup()
		if err != nil {
			return 0, err
		}
		xs = append(xs, d.Seconds())
		host.sample()
	}
	return median(xs), nil
}

// procStatusKB reads one "<field>: <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			num := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB"))
			return strconv.ParseFloat(num, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, field)
}

// procCPUSeconds reads the user and system CPU time a process has
// used from /proc/<pid>/stat, in seconds (the kernel counts in
// USER_HZ ticks, 100 per second on Linux).
func procCPUSeconds(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data)[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// rssPeak measures the peak resident set (VmHWM) of a process over a
// measured phase: the kernel's high-water mark is restarted when the
// phase starts and read when it ends.
type rssPeak struct{ pid string }

// startRSS restarts the high-water mark of pid ("self" for this
// process). For this process it first returns freed heap to the OS, so
// the peak excludes the benchmark's own input generation, reference
// computation and set-up timing.
func startRSS(pid string) (rssPeak, error) {
	if pid == "self" {
		runtime.GC()
		debug.FreeOSMemory()
	}
	return rssPeak{pid}, os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// finish puts the peak since startRSS on the sheet as peak_rss_mb.
func (r rssPeak) finish(s *sheet) error {
	kb, err := procStatusKB(r.pid, "VmHWM")
	if err != nil {
		return err
	}
	s.add("peak_rss_mb", "MiB", kb/1024, 1)
	return nil
}

// cpuTicks reads the all-CPU line of /proc/stat: total and steal ticks.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter reports the share of CPU time the hypervisor gave to
// other guests during a measurement: context for reading its timings.
type stealMeter struct{ total, steal float64 }

func startSteal() stealMeter {
	t, s := cpuTicks()
	return stealMeter{t, s}
}

func (m stealMeter) finish(s *sheet) {
	t, st := cpuTicks()
	s.add("env.cpu_steal_pct", "%", 100*ratio(st-m.steal, t-m.total), 1)
}
