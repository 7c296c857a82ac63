package pascal_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pag/internal/pascal"
	"pag/internal/workload"
)

// TestGoldenAssembly pins the exact assembly the sequential static
// evaluator generates for the generated workloads. The runtime oracles
// compare the simulator with the pool and the fleet, which all run the
// same generator, so a change to the code emitters or the peephole
// pass would slip past them; this digest catches it. Any intended
// change to the generated code must update the digests here.
func TestGoldenAssembly(t *testing.T) {
	l := pascal.MustNew()
	cases := []struct {
		name string
		cfg  workload.Config
		seed int64
		want string
	}{
		{"tiny", workload.Tiny(), 7, "0f9db9382db2322d2c9144dc30051bc40ca16dd8573193304366dc8987a6e98c"},
		{"tiny", workload.Tiny(), 1, "d45816b07ca663496fe1e3f500d942e9675f5c2cc6307f97dde95e59c48da92d"},
		{"small", workload.Small(), 42, "e7fcd85a837a4d282e26ed721c903c94d9740d262b9dd240ecdc41f998dd0c1d"},
		{"small", workload.Small(), 3, "ec9f038c36fba4267ad1e606c2056cc295b52815ee2c6375559c31d35ec6af6e"},
		{"course", workload.CourseCompiler(), 1987, "73181543ead010238e22e00fe7c4c520b03f1423cf3076b71fac09ef5e9d5012"},
		{"course", workload.CourseCompiler(), 1, "1d66650a0b93dafbbf15b7567b8392dcd9d2d7986a303bcd3be71da0e8ab915f"},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Seed = tc.seed
		code, errs := compile(t, l, workload.Generate(cfg))
		if len(errs) > 0 {
			t.Fatalf("%s seed %d: semantic errors: %v", tc.name, tc.seed, errs)
		}
		sum := sha256.Sum256([]byte(code))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s seed %d: assembly sha256 = %s, want %s (%d bytes)", tc.name, tc.seed, got, tc.want, len(code))
		}
	}
	// The hand-written programs add records, arrays, case and repeat.
	for name, want := range map[string]string{
		"hello":  "091edcc0bf48687963241078260d9a9c7b65a9eae17aadafa629f60187512cec",
		"sum":    "50b43d40a0f1a4a4445fc43ff72eaf48810204f0130bfc78159fd128131d5f9c",
		"proc":   "e2b530ed631839cf3ac034451f923fac7e862473ce16bea76ee6b560fb0cfb4f",
		"struct": "03269a68cf229cef24b0d90f5a9888722b182122d0b63d04db29b39d3abc9414",
	} {
		code, _ := compile(t, l, goodPrograms[name])
		sum := sha256.Sum256([]byte(code))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: assembly sha256 = %s, want %s (%d bytes)", name, got, want, len(code))
		}
	}
}
