package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCacheDirRejection: -cache-dir outside -batch is refused with
// the same shape of message as the other pool-only flags, and -batch
// refuses to persist a cache that -cache-bytes disabled.
func TestCacheDirRejection(t *testing.T) {
	cases := []struct {
		name string
		cfg  config
		args []string
		want string
	}{
		{
			"simulator",
			config{machines: 1, modeName: "combined", cacheDir: "/tmp/pagcache", wl: "tiny"},
			nil,
			"-cache-dir persists the -batch pool's whole-job cache; the simulator has none",
		},
		{
			"batch-cache-disabled",
			config{machines: 1, modeName: "combined", batch: true, cacheDir: "/tmp/pagcache", cacheBytes: -1},
			[]string{"unread.pas"},
			"-cache-dir persists the whole-job cache, which -cache-bytes -1 disables",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(&bytes.Buffer{}, c.cfg, c.args)
			if err == nil {
				t.Fatal("bad -cache-dir combination accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q missing %q", err, c.want)
			}
		})
	}
}

// TestPriorityRejectionWording: a typo'd -priority in batch mode
// fails before any file is read, naming the accepted priorities.
func TestPriorityRejectionWording(t *testing.T) {
	cfg := config{machines: 1, modeName: "combined", batch: true, priority: "urgent"}
	err := run(&bytes.Buffer{}, cfg, []string{"unread.pas"})
	if err == nil {
		t.Fatal("unknown priority accepted")
	}
	if want := `unknown priority "urgent" (want "high" or "low")`; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q missing %q", err, want)
	}
}

// TestRealRuntimesRefuseAblations: -batch and -daemon run the paper's
// configuration on a real runtime, so they refuse the simulator's
// evaluator ablations by name, the way they refuse -n and -gantt,
// before any file is read or any request is sent.
func TestRealRuntimesRefuseAblations(t *testing.T) {
	ablations := map[string]func(*config){
		"-mode":        func(c *config) { c.modeName = "dynamic" },
		"-nolibrarian": func(c *config) { c.noLib = true },
		"-uidchain":    func(c *config) { c.chain = true },
	}
	runtimes := map[string]func(*config){
		"batch":  func(c *config) { c.batch = true },
		"daemon": func(c *config) { c.daemonURL = "http://127.0.0.1:1" },
	}
	for rname, setRuntime := range runtimes {
		for flag, set := range ablations {
			t.Run(rname+"/"+flag, func(t *testing.T) {
				cfg := config{machines: 1, modeName: "combined", retries: -1}
				setRuntime(&cfg)
				set(&cfg)
				err := run(&bytes.Buffer{}, cfg, []string{"unread.pas"})
				if err == nil || !strings.Contains(err.Error(), flag+" ") {
					t.Errorf("%s %s: err = %v, want a rejection naming %s", rname, flag, err, flag)
				}
			})
		}
	}
}
