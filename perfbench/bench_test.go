package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"pag"
	"pag/internal/pascal"
)

// counts are the figures a later change may claim as counts: they must
// repeat exactly between two runs with the same seed.
type counts struct {
	CodeBytes, Messages, Frags, Instances, PartialHits, PartialFrags, DiskHits int
}

func countOf(t *testing.T, orc *oracle, recs []jobRec) counts {
	t.Helper()
	var c counts
	keys := make(map[refKey]bool)
	for _, r := range recs {
		if r.err != nil {
			t.Fatalf("%s compile failed: %v", r.class, r.err)
		}
		keys[r.key] = true
		c.Messages += r.res.messages
		c.Frags += r.res.frags
		c.Instances += r.res.instances
		if r.class == "edit" {
			c.PartialHits += r.res.partialHits
			c.PartialFrags += r.res.frags
		}
	}
	c.CodeBytes = int(orc.sumCodeBytes(keys))
	return c
}

// TestClosedLoopCountsRepeat runs each closed-loop workload twice with
// the same seed and a fixed job count, from a fresh setup each time,
// and requires identical counts.
func TestClosedLoopCountsRepeat(t *testing.T) {
	const seed = 7
	runs := map[string]func() counts{
		"cold-course": func() counts {
			st, err := setupCold(seed)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			recs := st.loop(budget{jobs: 2 * coldPrograms}, nil)
			return countOf(t, st.orc, recs)
		},
		"edit-loop": func() counts {
			st, err := setupEdit(seed)
			if err != nil {
				t.Fatal(err)
			}
			recs, _ := st.loop(budget{jobs: 2 * (editsPerSession + 1)}, nil)
			return countOf(t, st.orc, recs)
		},
		"fleet-http": func() counts {
			st, err := setupFleet(seed)
			if err != nil {
				t.Fatal(err)
			}
			defer st.close()
			recs := st.loop(budget{jobs: 2 * fleetPrograms}, nil)
			return countOf(t, st.orc, recs)
		},
		"disk-replay": func() counts { return diskReplay(t, seed) },
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			a, b := run(), run()
			if a != b {
				t.Fatalf("counts differ between runs with one seed:\n%+v\n%+v", a, b)
			}
			if a.CodeBytes == 0 && a.DiskHits == 0 {
				t.Fatalf("nothing counted: %+v", a)
			}
		})
	}
}

// diskReplay is a closed-loop stand-in for service-mix's disk class: a
// pool over a fresh cache directory compiles the programs, closes
// (flushing its spills), and a second pool over the same directory
// compiles them again, loading each from disk.
func diskReplay(t *testing.T, seed int64) counts {
	t.Helper()
	lang := pascal.MustNew()
	var keys []refKey
	for i := 0; i < 3; i++ {
		keys = append(keys, refKey{genProgram(shapeCourse, progSeed(seed, 6, i)), workers})
	}
	orc, err := buildOracle(lang, keys)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var c counts
	for life := 0; life < 2; life++ {
		store, err := pag.OpenDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		pool := pag.NewPool(pag.PoolOptions{Workers: workers, DiskCache: store})
		for i, k := range keys {
			if r := compileLocal(pool, lang, orc, "disk", k, compileOpts(workers), nil, i); r.err != nil {
				pool.Close()
				t.Fatal(r.err)
			}
		}
		pool.Close()
		c.DiskHits = int(pool.Stats().DiskHits)
	}
	return c
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric lists
// and BENCHMARK.json's in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		defs []metricDef
		spec []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		var want []metricDef
		for _, s := range c.spec {
			want = append(want, metricDef{s.Name, s.Unit})
		}
		if !reflect.DeepEqual(c.defs, want) {
			t.Errorf("metric list differs from BENCHMARK.json:\nprogram %v\njson    %v", c.defs, want)
		}
	}
}

// TestEditsStayInBodies checks that literal edits only touch
// single-digit literals of procedure bodies, never declarations.
func TestEditsStayInBodies(t *testing.T) {
	src := genProgram(shapeSmall, 3)
	sites := literalSites(src)
	if len(sites) == 0 {
		t.Fatal("no editable literals")
	}
	for _, at := range sites {
		if !isDigit(src[at]) || isDigit(src[at+1]) || isIdent(src[at-1]) {
			t.Fatalf("site %d is not a single-digit literal: %q", at, src[at-3:at+3])
		}
	}
	lang := pascal.MustNew()
	for _, e := range editChain(src, 30, 1) {
		if _, err := lang.Parse(e); err != nil {
			t.Fatalf("edit does not parse: %v", err)
		}
	}
}
