package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pag/internal/parallel"
)

// daemon is one pagd process the benchmark started.
type daemon struct {
	cmd    *exec.Cmd
	base   string     // http://127.0.0.1:port
	exited chan error // receives cmd.Wait's result once
	done   bool
}

// startDaemon starts pagd with 2 workers over cacheDir and returns it
// with the time from exec until /readyz answered 200. The port is
// picked free before pagd binds it, so another process can take it in
// between; a failed start is retried on a fresh port.
func startDaemon(bin, cacheDir string) (d *daemon, ready time.Duration, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if d, ready, err = launchDaemon(bin, cacheDir); err == nil {
			break
		}
	}
	return d, ready, err
}

func launchDaemon(bin, cacheDir string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: "http://127.0.0.1:" + port, exited: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+port, "-workers", strconv.Itoa(workers), "-cache-dir", cacheDir)
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start pagd: %w", err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for deadline := start.Add(20 * time.Second); time.Now().Before(deadline); {
		select {
		case err := <-d.exited:
			d.done = true
			return nil, 0, fmt.Errorf("pagd exited during start-up: %v", err)
		default:
		}
		if resp, err := probe.Get(d.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, 0, fmt.Errorf("pagd not ready within 20s")
}

// stop sends SIGTERM and waits for the exit; a non-zero exit, or one
// that needs SIGKILL after 20 seconds, is an error.
func (d *daemon) stop() error {
	if d.done {
		return nil
	}
	d.done = true
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("pagd exit after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // already failing; Wait reaps it
		<-d.exited
		return fmt.Errorf("pagd did not exit within 20s of SIGTERM")
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	_, port, err := net.SplitHostPort(ln.Addr().String())
	return port, err
}

// stats fetches pagd's /stats snapshot.
func (d *daemon) stats(c *http.Client) (parallel.Metrics, error) {
	var m parallel.Metrics
	resp, err := c.Get(d.base + "/stats")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// prom fetches pagd's /metrics exposition as series -> value.
func (d *daemon) prom(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// promSum adds every series of a metric family (all label values).
func promSum(m map[string]float64, family string) float64 {
	total := 0.0
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}
