package main

import (
	"fmt"
	"runtime"
	"sync"

	"pag"
	"pag/internal/parallel"
	"pag/internal/pascal"
	"pag/internal/vax"
)

// compileOpts are the options every measured compile uses at a given
// decomposition width: combined evaluation with the string librarian
// and unique-identifier presets, the size planner — pagd's defaults.
func compileOpts(width int) parallel.Options {
	return parallel.Options{
		Workers: width, Fragments: width, Mode: pag.Combined,
		Librarian: true, UIDPreset: true,
	}
}

// refKey identifies one expected program: a source compiled at a width.
type refKey struct {
	src   string
	width int
}

// oracle holds the expected output of every program a run compiles.
// References come from the simulated cluster (pag.CompileSim) at the
// same width and options, a different evaluation path from the real
// pool with no cache, and each distinct reference has been run once
// under the VAX emulator, which must terminate without error. The repo
// has no independent Pascal interpreter, so the oracle checks that the
// runtimes agree and that the code runs, not the program's meaning.
type oracle struct {
	refs map[refKey]string
	// codeBytes is vax.MachineSize of each reference.
	codeBytes map[refKey]int
}

// buildOracle computes the references of keys on nproc goroutines.
func buildOracle(l *pascal.Lang, keys []refKey) (*oracle, error) {
	o := &oracle{refs: make(map[refKey]string), codeBytes: make(map[refKey]int)}
	var todo []refKey
	for _, k := range keys {
		if _, ok := o.refs[k]; !ok {
			o.refs[k] = ""
			todo = append(todo, k)
		}
	}
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
		next  = make(chan refKey)
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				prog, err := simulate(l, k)
				size := 0
				if err == nil {
					size = vax.MachineSize(prog)
					if _, err = vax.Execute(prog); err != nil {
						err = fmt.Errorf("reference does not run: %w", err)
					}
				}
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				o.refs[k] = prog
				o.codeBytes[k] = size
				mu.Unlock()
			}
		}()
	}
	for _, k := range todo {
		next <- k
	}
	close(next)
	wg.Wait()
	if first != nil {
		return nil, first
	}
	return o, nil
}

// simulate compiles one program on the simulated cluster.
func simulate(l *pascal.Lang, k refKey) (string, error) {
	job, err := l.ClusterJob(k.src)
	if err != nil {
		return "", err
	}
	res, err := pag.CompileSim(job, pag.SimOptions{
		Machines: k.width, Mode: pag.Combined, Librarian: true, UIDPreset: true,
	})
	if err != nil {
		return "", err
	}
	if errs := pascal.SemanticErrors(res.RootAttrs); len(errs) > 0 {
		return "", fmt.Errorf("reference has %d semantic errors: %s", len(errs), errs[0])
	}
	return res.Program, nil
}

// check compares one compiled program with its reference.
func (o *oracle) check(k refKey, program string, rootAttrs []pag.Value) error {
	ref, ok := o.refs[k]
	switch {
	case !ok:
		return fmt.Errorf("no reference for program")
	case rootAttrs != nil && len(pascal.SemanticErrors(rootAttrs)) > 0:
		return fmt.Errorf("semantic errors: %v", pascal.SemanticErrors(rootAttrs))
	case program != ref:
		return fmt.Errorf("program differs from reference (%d vs %d bytes)", len(program), len(ref))
	}
	return nil
}

// sumCodeBytes adds vax.MachineSize over the distinct programs in keys.
func (o *oracle) sumCodeBytes(keys map[refKey]bool) float64 {
	total := 0
	for k := range keys {
		total += o.codeBytes[k]
	}
	return float64(total)
}
