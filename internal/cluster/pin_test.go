package cluster_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"pag/internal/cluster"
	"pag/internal/exprlang"
	"pag/internal/pascal"
	"pag/internal/trace"
	"pag/internal/workload"
)

// simPins holds the simulator's observable outcome for each pinned
// configuration: virtual evaluation and parse times, message and byte
// counts, per-fragment evaluator statistics, the program's SHA-256
// and a SHA-256 over the trace's spans, arrows and marks. Any change
// to how an evaluator machine charges, sends or marks shows up here.
var simPins = map[string]string{
	"tiny/combined/lib=true/m=1":    "eval=95750000 parse=57600000 msgs=8 bytes=7053 frags=[{0 2004 0 0 0}] prog=0f9db9382db2322d2c9144dc30051bc40ca16dd8573193304366dc8987a6e98c trace=dddf15cd75340a0e100e44191f9cafaa403363dda6687a9f26d6839674bf7743",
	"tiny/combined/lib=true/m=2":    "eval=79483999 parse=57600000 msgs=18 bytes=7598 frags=[{27 1498 45 45 5} {0 479 0 0 3}] prog=9ce2aac046513eae9cbfb285f66d45219016473aaf55c271b131f7e33386e5ca trace=2b67342b9daac255b955199d986817eb81c8202aecde353ddbaeef1192baa987",
	"tiny/combined/lib=true/m=5":    "eval=59561400 parse=57600000 msgs=43 bytes=9285 frags=[{46 223 71 73 9} {68 364 107 113 12} {0 479 0 0 3} {0 256 0 0 2} {0 568 0 0 2}] prog=9acfd90e0588a86229c32ecf078f7eec44a25c1406ed6a7e4ef8504833ebff56 trace=32ee67c6f248ec70eba2bdc7782acd66811c8c2698fce767f64a6efee0f0d222",
	"tiny/combined/lib=false/m=1":   "eval=89075500 parse=57600000 msgs=4 bytes=4313 frags=[{0 2004 0 0 0}] prog=0f9db9382db2322d2c9144dc30051bc40ca16dd8573193304366dc8987a6e98c trace=9f9d263432a18c1726ef90d55644491736bba076b85f25147fb76f006134bb7f",
	"tiny/combined/lib=false/m=2":   "eval=73811000 parse=57600000 msgs=12 bytes=5484 frags=[{27 1498 45 45 5} {0 479 0 0 3}] prog=9ce2aac046513eae9cbfb285f66d45219016473aaf55c271b131f7e33386e5ca trace=b6d7b03819a0b9a494d9f635ffe72aa4512a2169d8522b23c50b06d877fcd043",
	"tiny/combined/lib=false/m=5":   "eval=58582000 parse=57600000 msgs=32 bytes=9756 frags=[{46 223 71 73 9} {68 364 107 113 12} {0 479 0 0 3} {0 256 0 0 2} {0 568 0 0 2}] prog=9acfd90e0588a86229c32ecf078f7eec44a25c1406ed6a7e4ef8504833ebff56 trace=81489e06c361b75fccb154214594cb997bffc756de1d7cacdcd4f470b51ecbd6",
	"tiny/dynamic/lib=true/m=1":     "eval=217226500 parse=57600000 msgs=8 bytes=7053 frags=[{2004 0 2004 2486 0}] prog=0f9db9382db2322d2c9144dc30051bc40ca16dd8573193304366dc8987a6e98c trace=d3af6ae87cebc761c366949eef6e6af6c0a5ce18f4ae563e9bf6bb13d0428460",
	"tiny/dynamic/lib=true/m=2":     "eval=169766999 parse=57600000 msgs=18 bytes=7598 frags=[{1525 0 1530 1898 5} {479 0 482 588 3}] prog=9ce2aac046513eae9cbfb285f66d45219016473aaf55c271b131f7e33386e5ca trace=c269fe0d65afdee2318b84ff7c364adee970470b349389e391d21b60d2cb7060",
	"tiny/dynamic/lib=true/m=5":     "eval=84432900 parse=57600000 msgs=43 bytes=9285 frags=[{269 0 278 330 9} {432 0 444 550 12} {479 0 482 588 3} {256 0 258 321 2} {568 0 570 697 2}] prog=9acfd90e0588a86229c32ecf078f7eec44a25c1406ed6a7e4ef8504833ebff56 trace=d9acea76c158f0862aeab7cd9b4d73674ebb2971927efd0f34a1b9785c6ca6c2",
	"tiny/dynamic/lib=false/m=1":    "eval=210521500 parse=57600000 msgs=4 bytes=4313 frags=[{2004 0 2004 2486 0}] prog=0f9db9382db2322d2c9144dc30051bc40ca16dd8573193304366dc8987a6e98c trace=1b07cb6671b862be53bfa33e82a8e096212f432dcdd4eafca0e8ce55158c53cc",
	"tiny/dynamic/lib=false/m=2":    "eval=164094000 parse=57600000 msgs=12 bytes=5484 frags=[{1525 0 1530 1898 5} {479 0 482 588 3}] prog=9ce2aac046513eae9cbfb285f66d45219016473aaf55c271b131f7e33386e5ca trace=4c76ec400714d459d1f7a68075a6a33710a206653210617ec56debd56c46c348",
	"tiny/dynamic/lib=false/m=5":    "eval=83454000 parse=57600000 msgs=32 bytes=9756 frags=[{269 0 278 330 9} {432 0 444 550 12} {479 0 482 588 3} {256 0 258 321 2} {568 0 570 697 2}] prog=9acfd90e0588a86229c32ecf078f7eec44a25c1406ed6a7e4ef8504833ebff56 trace=cf71b4f28fe532482c035ec018d65ca4712b67af15ed387fca6fffad037b08f7",
	"course/combined/lib=true/m=1":  "eval=6321581550 parse=2562300000 msgs=8 bytes=452075 frags=[{0 120170 0 0 0}] prog=73181543ead010238e22e00fe7c4c520b03f1423cf3076b71fac09ef5e9d5012 trace=4a9e98c1fce39e0516a97322f70fcb49580f529bedc80278ff5b63aa3fa877b6",
	"course/combined/lib=true/m=2":  "eval=3789451049 parse=2562300000 msgs=18 bytes=464350 frags=[{159 69931 237 249 5} {0 50080 0 0 3}] prog=22ad40894f962a04e255a6485ab091a1b34f654e215c9c1be621f252d8b0d667 trace=27798db4efa5ae9e9ff3cf9c41339e9db835aaa61d646cbf241d50292431215e",
	"course/combined/lib=true/m=5":  "eval=1495040899 parse=2562300000 msgs=44 bytes=484210 frags=[{82 23209 125 130 5} {398 23858 599 644 12} {110 24386 168 170 8} {0 25584 0 0 3} {0 22543 0 0 2}] prog=377fbe36c68a03c6e0b13ad79a5b94c9c13ad1094ecad31b17e0389f4f94397d trace=8b1aeaa8fc7394327159366ec7af86e4770b977bf6ecdeb761513bc20dd4e777",
	"course/combined/lib=false/m=1": "eval=6251947500 parse=2562300000 msgs=4 bytes=261835 frags=[{0 120170 0 0 0}] prog=73181543ead010238e22e00fe7c4c520b03f1423cf3076b71fac09ef5e9d5012 trace=24125bb602a70ae347c68585b42fa0de2aab895b252da9b140a7b7e6ab1817f3",
	"course/combined/lib=false/m=2": "eval=3860002000 parse=2562300000 msgs=12 bytes=354514 frags=[{159 69931 237 249 5} {0 50080 0 0 3}] prog=22ad40894f962a04e255a6485ab091a1b34f654e215c9c1be621f252d8b0d667 trace=457ea9aa42690cfcf89fda7c4f38706ac4c8716dd3a6eaf04392091b29bc9cc5",
	"course/combined/lib=false/m=5": "eval=2064051000 parse=2562300000 msgs=34 bytes=615061 frags=[{82 23209 125 130 5} {398 23858 599 644 12} {110 24386 168 170 8} {0 25584 0 0 3} {0 22543 0 0 2}] prog=377fbe36c68a03c6e0b13ad79a5b94c9c13ad1094ecad31b17e0389f4f94397d trace=592cdc406fd4da0fdd690ecb04bad3304a2e7fe2eb2dfcf9b11c8346cd5f3851",
	"course/dynamic/lib=true/m=1":   "eval=13649971050 parse=2562300000 msgs=8 bytes=452075 frags=[{120170 0 120170 149737 0}] prog=73181543ead010238e22e00fe7c4c520b03f1423cf3076b71fac09ef5e9d5012 trace=578fecabf809adac4c743005f4f2ea3b2d29adb352069fc8792f4f75c0c28142",
	"course/dynamic/lib=true/m=2":   "eval=8051012049 parse=2562300000 msgs=18 bytes=464350 frags=[{70090 0 70095 87264 5} {50080 0 50083 62473 3}] prog=22ad40894f962a04e255a6485ab091a1b34f654e215c9c1be621f252d8b0d667 trace=144509e02788098a1c627f8fbd8fc4018943200b2855d547260a545051c9080e",
	"course/dynamic/lib=true/m=5":   "eval=3014672899 parse=2562300000 msgs=44 bytes=484210 frags=[{23291 0 23296 29084 5} {24256 0 24268 30229 12} {24496 0 24504 30525 8} {25584 0 25587 31948 3} {22543 0 22545 27951 2}] prog=377fbe36c68a03c6e0b13ad79a5b94c9c13ad1094ecad31b17e0389f4f94397d trace=68bc1db44aedf8178af54750435bfca3bfd2b39fe35fc8486c65c10422c0ed18",
	"course/dynamic/lib=false/m=1":  "eval=13580306500 parse=2562300000 msgs=4 bytes=261835 frags=[{120170 0 120170 149737 0}] prog=73181543ead010238e22e00fe7c4c520b03f1423cf3076b71fac09ef5e9d5012 trace=08fef7a434ac4eec1d7b6b36067d6c963965e196a668f6651b30a81a7293dc72",
	"course/dynamic/lib=false/m=2":  "eval=8121563000 parse=2562300000 msgs=12 bytes=354514 frags=[{70090 0 70095 87264 5} {50080 0 50083 62473 3}] prog=22ad40894f962a04e255a6485ab091a1b34f654e215c9c1be621f252d8b0d667 trace=7a2b0f957ddc80c62908ba1ddcedbbdc0cb4c66320ff74131bc83172c16edc1d",
	"course/dynamic/lib=false/m=5":  "eval=3589377000 parse=2562300000 msgs=34 bytes=615061 frags=[{23291 0 23296 29084 5} {24256 0 24268 30229 12} {24496 0 24504 30525 8} {25584 0 25587 31948 3} {22543 0 22545 27951 2}] prog=377fbe36c68a03c6e0b13ad79a5b94c9c13ad1094ecad31b17e0389f4f94397d trace=003f71962654abbb2e9055578c92c21513cf5f4f42c282f17fd53fa2575ff008",
	"expr/combined/lib=true/m=1":    "eval=25706000 parse=0 msgs=3 bytes=1522 frags=[{0 431 0 0 0}] prog=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 trace=cfe3ac622900d526fe6ea13118a565f940a312c73cf26271099b1afbc3a324cc",
	"expr/combined/lib=true/m=2":    "eval=32159000 parse=0 msgs=7 bytes=1583 frags=[{25 357 33 31 1} {0 49 0 0 1}] prog=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 trace=747379731479437865a2ba9eb8c6e1807281c0a94827e34c723b85212d084aa0",
	"expr/combined/lib=true/m=5":    "eval=25780000 parse=0 msgs=19 bytes=1767 frags=[{31 204 39 37 4} {0 49 0 0 1} {0 49 0 0 1} {0 49 0 0 1} {0 49 0 0 1}] prog=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 trace=fba366f8da8922ed00922e189e882343067bcc78e94edb773e96109681e620c8",
	"expr/combined/lib=false/m=1":   "eval=25706000 parse=0 msgs=3 bytes=1522 frags=[{0 431 0 0 0}] prog=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 trace=cfe3ac622900d526fe6ea13118a565f940a312c73cf26271099b1afbc3a324cc",
	"expr/combined/lib=false/m=2":   "eval=32159000 parse=0 msgs=7 bytes=1583 frags=[{25 357 33 31 1} {0 49 0 0 1}] prog=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 trace=747379731479437865a2ba9eb8c6e1807281c0a94827e34c723b85212d084aa0",
	"expr/combined/lib=false/m=5":   "eval=25780000 parse=0 msgs=19 bytes=1767 frags=[{31 204 39 37 4} {0 49 0 0 1} {0 49 0 0 1} {0 49 0 0 1} {0 49 0 0 1}] prog=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 trace=fba366f8da8922ed00922e189e882343067bcc78e94edb773e96109681e620c8",
	"expr/dynamic/lib=true/m=1":     "eval=49245000 parse=0 msgs=3 bytes=1522 frags=[{431 0 431 477 0}] prog=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 trace=d9a1c725f2ac4064d2187bbcf9723e93f8b4adb4ad527cd7daedff8855f4535e",
	"expr/dynamic/lib=true/m=2":     "eval=45815000 parse=0 msgs=7 bytes=1583 frags=[{382 0 383 423 1} {49 0 50 54 1}] prog=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 trace=eab066e54a4e3e14c6e667dd549ca51e316c00b3efe962c725c6ad82ec73a77f",
	"expr/dynamic/lib=true/m=5":     "eval=33520000 parse=0 msgs=19 bytes=1767 frags=[{235 0 239 261 4} {49 0 50 54 1} {49 0 50 54 1} {49 0 50 54 1} {49 0 50 54 1}] prog=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 trace=ec848d7f785015538c70453420193a74d02381d2a3ec56ff84e3da8973f35985",
	"expr/dynamic/lib=false/m=1":    "eval=49245000 parse=0 msgs=3 bytes=1522 frags=[{431 0 431 477 0}] prog=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 trace=d9a1c725f2ac4064d2187bbcf9723e93f8b4adb4ad527cd7daedff8855f4535e",
	"expr/dynamic/lib=false/m=2":    "eval=45815000 parse=0 msgs=7 bytes=1583 frags=[{382 0 383 423 1} {49 0 50 54 1}] prog=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 trace=eab066e54a4e3e14c6e667dd549ca51e316c00b3efe962c725c6ad82ec73a77f",
	"expr/dynamic/lib=false/m=5":    "eval=33520000 parse=0 msgs=19 bytes=1767 frags=[{235 0 239 261 4} {49 0 50 54 1} {49 0 50 54 1} {49 0 50 54 1} {49 0 50 54 1}] prog=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 trace=ec848d7f785015538c70453420193a74d02381d2a3ec56ff84e3da8973f35985",
}

// simOutcome renders one run in the simPins format.
func simOutcome(res *cluster.Result) string {
	return fmt.Sprintf("eval=%d parse=%d msgs=%d bytes=%d frags=%v prog=%x trace=%x",
		res.EvalTime, res.ParseTime, res.Messages, res.Bytes, res.PerFrag,
		sha256.Sum256([]byte(res.Program)), traceDigest(res.Trace))
}

// traceDigest hashes every span, arrow and mark in recording order.
func traceDigest(tr *trace.Trace) [sha256.Size]byte {
	h := sha256.New()
	for _, s := range tr.Spans {
		fmt.Fprintf(h, "s %s %d %d %s\n", s.Proc, s.Start, s.End, s.Label)
	}
	for _, a := range tr.Arrows {
		fmt.Fprintf(h, "a %s %s %d %d %d %s\n", a.From, a.To, a.Sent, a.Arrived, a.Size, a.Label)
	}
	for _, m := range tr.Marks {
		fmt.Fprintf(h, "m %s %d %s\n", m.Proc, m.At, m.Label)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestSimulatorPinned runs the simulator on a tiny and a course-sized
// Pascal program and an expression program, at 1, 2 and 5 machines,
// in both modes, with the librarian on and off, and compares each
// outcome with its recorded value.
func TestSimulatorPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("course-sized simulations")
	}
	jobs := map[string]cluster.Job{}
	pl := pascal.MustNew()
	for name, cfg := range map[string]workload.Config{"tiny": workload.Tiny(), "course": workload.CourseCompiler()} {
		job, err := pl.ClusterJob(workload.Generate(cfg))
		if err != nil {
			t.Fatal(err)
		}
		jobs[name] = job
	}
	jobs["expr"], _ = exprJob(t, exprlang.Generate(8, 6))
	for _, name := range []string{"tiny", "course", "expr"} {
		for _, mode := range []cluster.Mode{cluster.Combined, cluster.Dynamic} {
			for _, lib := range []bool{true, false} {
				for _, machines := range []int{1, 2, 5} {
					key := fmt.Sprintf("%s/%v/lib=%v/m=%d", name, mode, lib, machines)
					res, err := cluster.Run(jobs[name], cluster.Options{
						Machines: machines, Mode: mode, Librarian: lib, UIDPreset: true,
					})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if got, want := simOutcome(res), simPins[key]; got != want {
						t.Errorf("%s:\n got %q\nwant %q", key, got, want)
					}
				}
			}
		}
	}
}
