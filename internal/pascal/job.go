package pascal

import (
	"crypto/sha256"

	"pag/internal/ag"
	"pag/internal/cluster"
	"pag/internal/tree"
)

// SemanticErrors extracts the compiler's semantic-error report from a
// run's root attributes. Every frontend (pagc, pagd) must consult this
// before trusting the generated program; keeping the attribute
// plumbing here means a change to the error representation cannot
// silently strand one of them.
func SemanticErrors(rootAttrs []ag.Value) []string {
	if len(rootAttrs) <= ProgAttrErrs {
		return nil
	}
	errs, _ := rootAttrs[ProgAttrErrs].([]string)
	return errs
}

// SourceKey is the content address of src as a program of this front
// end: SHA-256 over the front end's identity and the source text. The
// parser is deterministic, so equal keys mean equal trees; it is the
// cluster.Job.Key of every job this package builds.
func SourceKey(src string) tree.Digest {
	h := sha256.New()
	// The source goes through a stack buffer: converting it to one
	// []byte would copy a whole program to the heap per key.
	var buf [4096]byte
	n := copy(buf[:], "pag/pascal\x00")
	for {
		c := copy(buf[n:], src)
		h.Write(buf[:n+c]) //nolint:errcheck // hash.Hash never errors
		if src = src[c:]; src == "" {
			break
		}
		n = 0
	}
	var d tree.Digest
	h.Sum(d[:0])
	return d
}

// SourceJob assembles the cluster job for src without parsing it:
// grammar, analysis, terminal-attribute function, the
// unique-identifier attribute pairs of every split symbol and the
// source key, but no tree. It is what a front end hands
// parallel.(*Pool).CompileSource, which parses only on a cache miss.
func (l *Lang) SourceJob(src string) cluster.Job {
	return cluster.Job{
		G:    l.G,
		A:    l.A,
		Lex:  l.TerminalAttrs,
		UIDs: l.uidPairs(),
		Key:  SourceKey(src),
	}
}

// ClusterJob parses src and assembles the cluster job for it: the
// SourceJob, plus the tree and the parse-cost estimate the simulator
// charges.
func (l *Lang) ClusterJob(src string) (cluster.Job, error) {
	root, err := l.Parse(src)
	if err != nil {
		return cluster.Job{}, err
	}
	job := l.SourceJob(src)
	job.Root = root
	job.ParseCost = ParseCost(src)
	return job, nil
}

// uidPairs lists the (lbase, lused) pair of every split symbol.
func (l *Lang) uidPairs() []cluster.UIDPair {
	return []cluster.UIDPair{
		{Sym: l.Stmt, Base: SAttrLbase, Count: SAttrLused},
		{Sym: l.StmtList, Base: SAttrLbase, Count: SAttrLused},
		{Sym: l.ProcDecl, Base: PAttrLbase, Count: PAttrLused},
		{Sym: l.ProcPart, Base: PAttrLbase, Count: PAttrLused},
	}
}
