// Package netsim is a deterministic discrete-event simulator of the
// paper's experimental platform (§3): a network multiprocessor of
// workstations connected by a shared Ethernet, running a message-based
// operating system with location-transparent IPC (the V System).
//
// Each simulated machine runs one process body (a Go function) with a
// local virtual clock. Processes interact only through messages, so a
// conservative scheduling rule — always resume the process with the
// smallest next event time — yields a deterministic, causally correct
// simulation. Process bodies run as goroutines but exactly one executes
// at a time; the simulator is a coroutine scheduler, not a parallel
// runtime. (A change's real-time parallelism is demonstrated by the
// examples; the simulator's job is to reproduce 1987 timing ratios
// deterministically.)
package netsim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"pag/internal/trace"
)

// Config describes the simulated hardware.
type Config struct {
	// MsgLatency is the fixed per-message cost (send system call,
	// interrupt handling, kernel-to-kernel protocol).
	MsgLatency time.Duration
	// BandwidthBytesPerSec is the shared network bandwidth.
	BandwidthBytesPerSec float64
	// SharedBus serializes transfers on the shared medium (a 1987
	// Ethernet carries one frame at a time). Contention is modelled
	// approximately: reservations are made in send order.
	SharedBus bool
	// CPUScale multiplies all Compute durations (1.0 = SUN-2 speed).
	CPUScale float64
}

// Validate checks that the hardware description is physically usable.
// A zero-value Config used to sail through and then divide by its zero
// bandwidth on the first Send (infinite transfer times) — or, with
// CPUScale left at zero, run all Computes for free; both now fail here
// with an explanation instead.
func (c Config) Validate() error {
	if c.MsgLatency < 0 {
		return fmt.Errorf("netsim: MsgLatency %v is negative", c.MsgLatency)
	}
	if !(c.BandwidthBytesPerSec > 0) || math.IsInf(c.BandwidthBytesPerSec, 0) {
		return fmt.Errorf("netsim: BandwidthBytesPerSec must be positive and finite, got %v (did you mean DefaultHardware()?)",
			c.BandwidthBytesPerSec)
	}
	if !(c.CPUScale > 0) || math.IsInf(c.CPUScale, 0) {
		return fmt.Errorf("netsim: CPUScale must be positive and finite, got %v (1.0 = SUN-2 speed)", c.CPUScale)
	}
	return nil
}

// DefaultHardware returns constants calibrated to the paper's testbed:
// ~1 MIPS SUN-2 workstations on a 10 Mbit/s shared Ethernet under the
// V System (per-message latency in the low milliseconds).
func DefaultHardware() Config {
	return Config{
		MsgLatency:           3 * time.Millisecond,
		BandwidthBytesPerSec: 1.0e6, // 10 Mbit/s minus framing overhead
		SharedBus:            true,
		CPUScale:             1.0,
	}
}

// Msg is a delivered message.
type Msg struct {
	From    *Proc
	Kind    string
	Payload any
	Size    int
	Sent    time.Duration
	Arrived time.Duration
}

type procState int

const (
	stateReady procState = iota + 1 // created or resumable, not yet finished
	stateBlocked
	stateDone
)

// Proc is one simulated machine/process.
type Proc struct {
	sim  *Sim
	id   int
	name string
	now  time.Duration

	resume chan bool // scheduler -> proc: run (false = shut down)
	yield  chan struct{}

	state    procState
	inbox    []Msg // pending, sorted by (Arrived, seq)
	body     func(p *Proc)
	shutdown bool
}

// ID returns the process id (creation order, 0-based).
func (p *Proc) ID() int { return p.id }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the process's local virtual time.
func (p *Proc) Now() time.Duration { return p.now }

// Sim is one simulation run.
type Sim struct {
	cfg   Config
	procs []*Proc
	tr    *trace.Trace

	busFreeAt time.Duration
	seq       int // message sequence for FIFO tie-breaking
}

// New creates a simulator with the given hardware configuration. The
// configuration is validated when Run starts (see Config.Validate), so
// an unusable Config — e.g. the zero value, whose zero bandwidth would
// make every transfer infinite — surfaces as an error instead of
// corrupting the simulation.
func New(cfg Config) *Sim {
	return &Sim{cfg: cfg, tr: &trace.Trace{}}
}

// Trace returns the activity trace recorded so far.
func (s *Sim) Trace() *trace.Trace { return s.tr }

// Spawn creates a simulated process. All processes must be spawned
// before Run is called.
func (s *Sim) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		sim:    s,
		id:     len(s.procs),
		name:   name,
		resume: make(chan bool),
		yield:  make(chan struct{}),
		state:  stateReady,
		body:   body,
	}
	s.procs = append(s.procs, p)
	return p
}

// ErrDeadlock reports that all processes were blocked on Recv with no
// messages in flight.
var ErrDeadlock = errors.New("netsim: deadlock: all processes blocked on Recv")

// Run executes the simulation to completion and returns the final
// virtual time (the maximum clock over all processes).
func (s *Sim) Run() (time.Duration, error) {
	// Reject unusable hardware before any process goroutine starts, so
	// a bad Config is an error, not Inf/NaN virtual times (and nothing
	// needs shutting down on this path).
	if err := s.cfg.Validate(); err != nil {
		return 0, err
	}
	for _, p := range s.procs {
		p := p
		go func() {
			if ok := <-p.resume; !ok {
				p.state = stateDone
				p.yield <- struct{}{}
				return
			}
			p.body(p)
			p.state = stateDone
			p.yield <- struct{}{}
		}()
	}
	var deadlocked bool
	for {
		p := s.pickNext()
		if p == nil {
			break
		}
		if p.state == stateBlocked {
			// Resuming a blocked process: its clock jumps to the
			// earliest arrival.
			if p.inbox[0].Arrived > p.now {
				p.now = p.inbox[0].Arrived
			}
		}
		p.state = stateReady
		p.resume <- true
		<-p.yield
	}
	// Any still-blocked process indicates deadlock; shut them down so
	// no goroutine outlives the simulation.
	for _, p := range s.procs {
		if p.state != stateDone {
			deadlocked = true
			p.shutdown = true
			p.resume <- false
			<-p.yield
		}
	}
	var end time.Duration
	for _, p := range s.procs {
		if p.now > end {
			end = p.now
		}
	}
	if deadlocked {
		var blocked []string
		for _, p := range s.procs {
			blocked = append(blocked, p.name)
		}
		return end, fmt.Errorf("%w (procs: %v)", ErrDeadlock, blocked)
	}
	return end, nil
}

// pickNext returns the runnable process with the smallest next event
// time, or nil when none is runnable.
func (s *Sim) pickNext() *Proc {
	var best *Proc
	var bestT time.Duration
	for _, p := range s.procs {
		var t time.Duration
		switch p.state {
		case stateDone:
			continue
		case stateReady:
			t = p.now
		case stateBlocked:
			if len(p.inbox) == 0 {
				continue
			}
			t = p.inbox[0].Arrived
			if p.now > t {
				t = p.now
			}
		}
		if best == nil || t < bestT {
			best, bestT = p, t
		}
	}
	return best
}

// Compute advances the process's clock by the (scaled) duration,
// records a busy span, and yields to the scheduler so that processes
// execute in global virtual-time order. The yield is what makes shared
// resources (the bus) observe sends in causal order: a process only
// proceeds past a Compute when its clock is the minimum next event
// time in the system.
func (p *Proc) Compute(d time.Duration) {
	if p.shutdown || d <= 0 {
		return
	}
	d = time.Duration(float64(d) * p.sim.cfg.CPUScale)
	p.sim.tr.AddSpan(p.name, p.now, p.now+d, "")
	p.now += d
	// Yield: let any process with an earlier next event run first.
	p.state = stateReady
	p.yield <- struct{}{}
	if ok := <-p.resume; !ok {
		p.shutdown = true
	}
}

// Mark records a named instant on this process's trace line.
func (p *Proc) Mark(label string) {
	p.sim.tr.AddMark(p.name, p.now, label)
}

// Send transmits a message of the given size to another process. The
// arrival time accounts for the per-message latency, the transfer time
// at the configured bandwidth and — with SharedBus — queueing behind
// earlier transfers on the shared medium.
func (p *Proc) Send(to *Proc, kind string, payload any, size int) {
	if p.shutdown {
		return
	}
	if size < 1 {
		size = 1
	}
	transfer := time.Duration(float64(size) / p.sim.cfg.BandwidthBytesPerSec * float64(time.Second))
	start := p.now
	if p.sim.cfg.SharedBus {
		if p.sim.busFreeAt > start {
			start = p.sim.busFreeAt
		}
		p.sim.busFreeAt = start + transfer
	}
	arrive := start + transfer + p.sim.cfg.MsgLatency
	m := Msg{From: p, Kind: kind, Payload: payload, Size: size, Sent: p.now, Arrived: arrive}
	p.sim.seq++
	to.inbox = append(to.inbox, m)
	sort.SliceStable(to.inbox, func(i, j int) bool { return to.inbox[i].Arrived < to.inbox[j].Arrived })
	p.sim.tr.AddArrow(p.name, to.name, m.Sent, m.Arrived, size, kind)
}

// Recv blocks until a message is available and returns it. The second
// result is false when the simulation is shutting down (deadlock or
// external stop); the process must return promptly in that case.
func (p *Proc) Recv() (Msg, bool) {
	for {
		if p.shutdown {
			return Msg{}, false
		}
		if len(p.inbox) > 0 && p.inbox[0].Arrived <= p.now {
			m := p.inbox[0]
			p.inbox = p.inbox[1:]
			return m, true
		}
		if len(p.inbox) > 0 {
			// Message in flight: wait for its arrival (the scheduler
			// will advance our clock).
			p.state = stateBlocked
		} else {
			p.state = stateBlocked
		}
		p.yield <- struct{}{}
		if ok := <-p.resume; !ok {
			p.shutdown = true
			return Msg{}, false
		}
		if len(p.inbox) > 0 && p.inbox[0].Arrived > p.now {
			p.now = p.inbox[0].Arrived
		}
	}
}
