package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"
)

// Daemon mode: instead of compiling in-process, pagc submits the job
// to a running pagd (`-daemon http://host:8642`) and prints what the
// daemon's plain-text mode returns — the same assembly `pagc -q -S`
// would produce locally.
//
// The client retries transient failures — connection errors and
// 502/503/504 answers — with exponential backoff and jitter, but ONLY
// requests whose response body never started: once a 200 begins
// streaming assembly, a mid-stream failure is reported, not retried,
// because the daemon has already spent the work and a blind resubmit
// could double-compile. (POST /compile is not idempotent the way the
// fleet's session RPCs are.)

const (
	defaultDaemonRetries = 2
	defaultRetryBackoff  = 200 * time.Millisecond
	maxRetryBackoff      = 5 * time.Second

	// priorityHeader is pagd's default -priority-header.
	priorityHeader = "X-Pag-Priority"
)

// daemonRequest mirrors pagd's compile request wire format.
type daemonRequest struct {
	Source   string `json:"source,omitempty"`
	Workload string `json:"workload,omitempty"`
}

// runDaemon is the -daemon entry point.
func runDaemon(out io.Writer, cfg config, args []string) error {
	// Simulator- and batch-only flags are rejected loudly, as
	// everywhere else in this command.
	if cfg.batch {
		return fmt.Errorf("-daemon and -batch are different runtimes: the daemon owns its pool")
	}
	if cfg.machines != 1 {
		return fmt.Errorf("-n selects simulated machines; the daemon sizes its own pool")
	}
	if cfg.gran != 0 {
		return fmt.Errorf("-granularity tunes the local decomposition; the daemon decides its own")
	}
	if cfg.gantt {
		return fmt.Errorf("-gantt is a simulator feature; the daemon has no machine activity chart")
	}
	if cfg.workers != 0 || cfg.cacheBytes != 0 {
		return fmt.Errorf("-workers and -cache-bytes configure a local pool; the daemon owns its own")
	}
	if err := refuseAblations(cfg, "the daemon runs"); err != nil {
		return err
	}

	var req daemonRequest
	switch {
	case cfg.wl != "" && len(args) > 0:
		return fmt.Errorf("-workload %s conflicts with file operand(s) %v: pass one or the other", cfg.wl, args)
	case cfg.wl != "":
		req.Workload = cfg.wl
	case len(args) == 1:
		data, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		req.Source = string(data)
	case len(args) > 1:
		return fmt.Errorf("got %d file operands %v, want exactly one", len(args), args)
	default:
		return fmt.Errorf("usage: pagc -daemon URL [flags] file.pas  (or -workload course)")
	}

	retries := cfg.retries
	if retries < 0 {
		retries = defaultDaemonRetries
	}
	backoff := cfg.retryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	c := &daemonClient{
		base:     strings.TrimRight(cfg.daemonURL, "/"),
		client:   http.DefaultClient,
		retries:  retries,
		backoff:  backoff,
		priority: cfg.priority,
	}
	asmText, attempts, err := c.compile(req)
	if err != nil {
		return err
	}
	if !cfg.quiet {
		fmt.Fprintf(out, "compiled by daemon at %s (%d attempt(s)): %d bytes of VAX assembly",
			c.base, attempts, len(strings.TrimRight(asmText, "\n")))
		if !cfg.asm {
			fmt.Fprint(out, " (use -S to print)")
		}
		fmt.Fprintln(out)
	}
	if cfg.asm {
		fmt.Fprint(out, asmText)
	}
	return nil
}

// daemonClient is the retrying HTTP client for one pagd.
type daemonClient struct {
	base     string
	client   *http.Client
	retries  int
	backoff  time.Duration
	priority string
}

// retryableStatus: answers that mean "the daemon could not take this
// job right now", worth backing off and resubmitting. Anything else —
// bad request, semantic errors, quota — would fail identically again.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// compile submits the job, retrying transient pre-body failures, and
// returns the assembly text and how many attempts it took.
func (c *daemonClient) compile(req daemonRequest) (string, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", 0, err
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		httpReq, err := http.NewRequest(http.MethodPost, c.base+"/compile?format=asm", bytes.NewReader(body))
		if err != nil {
			return "", attempt, err
		}
		httpReq.Header.Set("Content-Type", "application/json")
		httpReq.Header.Set("X-Pag-Client", "pagc")
		if c.priority != "" {
			httpReq.Header.Set(priorityHeader, c.priority)
		}
		resp, err := c.client.Do(httpReq)
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				// The body is streaming: from here on, failures are
				// reported, never retried.
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					return "", attempt + 1, fmt.Errorf("daemon response interrupted mid-stream (not retried: the job may have compiled): %w", err)
				}
				return string(data), attempt + 1, nil
			}
			msg, _ := io.ReadAll(resp.Body) //nolint:errcheck // best-effort error text
			resp.Body.Close()
			err = fmt.Errorf("daemon answered %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
			if !retryableStatus(resp.StatusCode) {
				return "", attempt + 1, err
			}
		}
		lastErr = err
		if attempt >= c.retries {
			return "", attempt + 1, fmt.Errorf("%w (after %d attempt(s))", lastErr, attempt+1)
		}
		time.Sleep(daemonBackoff(c.backoff, attempt))
	}
}

// daemonBackoff is the attempt'th (0-based) retry delay: exponential
// doubling from base, capped, jittered into [d/2, d) so a herd of pagc
// invocations does not re-stampede a recovering daemon.
func daemonBackoff(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	if d <= time.Nanosecond {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half))
}
