// Command multicore demonstrates the two parallel runtimes side by
// side on the paper's Pascal workload: the simulated 1987 cluster
// (pag.CompileSim, virtual time on SUN-2-class machines) and the real
// shared-memory runtime (pag.CompileParallel, wall-clock time on this
// machine's cores). Both produce byte-identical generated code.
package main

import (
	"fmt"
	"os"
	"runtime"

	"pag"
	"pag/internal/pascal"
	"pag/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multicore:", err)
		os.Exit(1)
	}
}

func run() error {
	lang := pascal.MustNew()
	src := workload.Generate(workload.CourseCompiler())
	job, err := lang.ClusterJob(src)
	if err != nil {
		return err
	}
	fmt.Printf("source: %d bytes of generated Pascal, %d tree nodes\n\n",
		len(src), job.Root.Count())

	const machines = 4
	sim, err := pag.CompileSim(job, pag.SimOptions{
		Machines: machines, Mode: pag.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("simulated cluster  (%d machines, 1987):  %8.2fs virtual, %d fragments\n",
		machines, sim.EvalTime.Seconds(), sim.Frags)

	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		real, err := pag.CompileParallel(job, pag.Options{
			Workers: workers, Fragments: machines,
		})
		if err != nil {
			return err
		}
		// Same decomposition, different worker counts: the output never
		// changes, only the wall clock does.
		match := "programs match"
		if real.Program != sim.Program {
			match = "PROGRAMS DIFFER"
		}
		fmt.Printf("real runtime       (%d workers, today): %8.2fms wall,   %d fragments — %s\n",
			real.Workers, float64(real.WallTime.Microseconds())/1000, real.Frags, match)
	}
	return nil
}
