package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pag/internal/aglint"
)

// checkCfg is the baseline -check configuration.
func checkCfg(jsonOut bool) config {
	return config{machines: 1, modeName: "combined", check: true, jsonOut: jsonOut}
}

func TestCheckSeededBadGrammars(t *testing.T) {
	for _, tc := range []struct {
		file     string
		wantCode string
		wantErr  bool // error severity → nonzero exit
		witness  []string
	}{
		{
			file: "testdata/circular.ag", wantCode: aglint.CodeCircular, wantErr: true,
			witness: []string{"cycle:", "x.s", "x.i", "semantic rule of production", "order induced via production"},
		},
		{
			file: "testdata/notordered.ag", wantCode: aglint.CodeNotOrdered, wantErr: true,
			witness: []string{"production root -> x LEAF requires", "production root -> LEAF x requires"},
		},
		{
			file: "testdata/missingrule.ag", wantCode: aglint.CodeMissingRule, wantErr: true,
			witness: nil,
		},
		{
			file: "testdata/deadprod.ag", wantCode: aglint.CodeDeadProd, wantErr: false,
			witness: nil,
		},
	} {
		t.Run(tc.file, func(t *testing.T) {
			var out bytes.Buffer
			err := run(&out, checkCfg(false), []string{tc.file})
			if tc.wantErr && err == nil {
				t.Fatalf("run succeeded, want nonzero exit; output:\n%s", out.String())
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("run failed: %v\noutput:\n%s", err, out.String())
			}
			text := out.String()
			if !strings.Contains(text, "["+tc.wantCode+"]") {
				t.Errorf("report lacks %s finding:\n%s", tc.wantCode, text)
			}
			for _, w := range tc.witness {
				if !strings.Contains(text, w) {
					t.Errorf("report lacks witness fragment %q:\n%s", w, text)
				}
			}
		})
	}
}

func TestCheckJSONRoundTrips(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, checkCfg(true), []string{"testdata/circular.ag"})
	if err == nil {
		t.Fatal("run succeeded on a circular grammar")
	}
	var report aglint.Report
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("response is not a JSON report: %v\n%s", err, out.String())
	}
	if report.Grammar != "testdata/circular.ag" {
		t.Errorf("Grammar = %q, want the file path", report.Grammar)
	}
	ds := report.ByCode(aglint.CodeCircular)
	if len(ds) != 1 || len(ds[0].Witness) == 0 {
		t.Fatalf("circular finding with witness missing: %+v", report.Diagnostics)
	}
	// The parsed report re-marshals identically (severity names and
	// witness lines survive the trip).
	again, err := json.Marshal(&report)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	var back aglint.Report
	if err := json.Unmarshal(again, &back); err != nil {
		t.Fatalf("re-unmarshal: %v", err)
	}
	if back.Summary() != report.Summary() {
		t.Errorf("summaries diverge: %q vs %q", back.Summary(), report.Summary())
	}
}

func TestCheckBuiltinGrammarClean(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, checkCfg(false), nil); err != nil {
		t.Fatalf("builtin Pascal grammar failed -check: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 error(s)") {
		t.Errorf("summary missing:\n%s", out.String())
	}
}

func TestCheckFlagConflicts(t *testing.T) {
	for name, cfg := range map[string]config{
		"json without check":  {jsonOut: true},
		"check with batch":    {check: true, batch: true},
		"check with daemon":   {check: true, daemonURL: "http://localhost:1"},
		"check with workload": {check: true, wl: "tiny"},
	} {
		if err := run(&bytes.Buffer{}, cfg, nil); err == nil {
			t.Errorf("%s: run succeeded, want flag-conflict error", name)
		}
	}
	var out bytes.Buffer
	if err := run(&out, checkCfg(false), []string{"a.ag", "b.ag"}); err == nil {
		t.Error("two operands accepted, want error")
	}
}
