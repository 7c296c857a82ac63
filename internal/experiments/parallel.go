package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"pag/internal/cluster"
	"pag/internal/parallel"
)

// Fig8Point is one point of the reproduction's own figure: the real
// multicore running time of the parallel runtime on this machine.
type Fig8Point struct {
	Workers  int
	Wall     time.Duration
	Speedup  float64 // vs the 1-worker run (or the first point if absent)
	Frags    int
	Messages int
}

// Fig8Result is the real-hardware running-times figure.
type Fig8Result struct {
	Points []Fig8Point
	CPUs   int
}

// Fig8 measures the real shared-memory parallel runtime on the paper's
// Pascal workload at each worker count, taking the best of reps runs
// per point (reps <= 0 uses 3). Unlike Figure 5, these are wall-clock
// times on this machine, not simulated 1987 times — the modern answer
// to the paper's question. Speedups above 1 require actual cores: on a
// single-CPU machine the curve is flat.
func Fig8(workers []int, reps int) (*Fig8Result, error) {
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	if reps <= 0 {
		reps = 3
	}
	job, err := Job()
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{CPUs: runtime.NumCPU()}
	for _, w := range workers {
		opts := parallel.Options{Workers: w}
		var best *parallel.Result
		for i := 0; i < reps; i++ {
			res, err := parallel.Run(job, opts)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig8 x%d: %w", w, err)
			}
			if best == nil || res.WallTime < best.WallTime {
				best = res
			}
		}
		out.Points = append(out.Points, Fig8Point{
			Workers:  w,
			Wall:     best.WallTime,
			Frags:    best.Frags,
			Messages: best.Messages,
		})
	}
	// Speedups are relative to the 1-worker point regardless of the
	// order the caller listed worker counts in (first point if no
	// 1-worker configuration was measured).
	base := out.Points[0].Wall
	for _, p := range out.Points {
		if p.Workers == 1 {
			base = p.Wall
			break
		}
	}
	for i := range out.Points {
		out.Points[i].Speedup = float64(base) / float64(out.Points[i].Wall)
	}
	return out, nil
}

// Render prints the figure as a table.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: real multicore running times (this machine, %d CPUs)\n", r.CPUs)
	b.WriteString("workers    wall        speedup   frags  messages\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "   %d     %9.3fms    %5.2fx    %3d    %5d\n",
			p.Workers, float64(p.Wall.Microseconds())/1000, p.Speedup, p.Frags, p.Messages)
	}
	return b.String()
}

// ParallelMatchesCluster verifies that the real runtime reproduces the
// simulated cluster's program byte for byte at the given width (used by
// benchfig as a self-check before printing Figure 8).
func ParallelMatchesCluster(workers int) error {
	job, err := Job()
	if err != nil {
		return err
	}
	opts := DefaultOptions()
	opts.Machines = workers
	opts.Mode = cluster.Combined
	sim, err := cluster.Run(job, opts)
	if err != nil {
		return err
	}
	real, err := parallel.Run(job, parallel.Options{Workers: workers})
	if err != nil {
		return err
	}
	if real.Program != sim.Program {
		return fmt.Errorf("experiments: parallel program (%d bytes) differs from cluster program (%d bytes) at %d workers",
			len(real.Program), len(sim.Program), workers)
	}
	return nil
}
