package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultConfig parameterizes a FaultTransport. All probabilities are in
// [0, 1] and drawn from one seeded RNG, so a given (seed, schedule,
// traffic) triple misbehaves identically on every run — the tests that
// exercise the coordinator's failure handling are reproducible, not
// lucky.
type FaultConfig struct {
	// Seed seeds the RNG (0 is replaced by 1).
	Seed int64

	// DropProb loses the request before delivery (the worker never
	// sees it). DelayProb delays delivery by up to MaxDelay.
	DropProb  float64
	DelayProb float64
	MaxDelay  time.Duration

	// CorruptProb flips one byte of a successful response in flight —
	// the fault the wire checksum exists to catch.
	CorruptProb float64

	// DisconnectProb delivers the request but loses the response (a
	// mid-stream disconnect): the worker applied the RPC, the caller
	// cannot know. Retries must therefore be idempotent.
	DisconnectProb float64

	// CrashAfter kills the worker at addr permanently once it has
	// served that many session RPCs (health probes do not count, so
	// schedules stay deterministic regardless of probe timing).
	// After the crash every RPC to the addr fails like a dead host.
	CrashAfter map[string]int

	// OnCrash, when set, fires once per crashed addr (under no lock);
	// tests use it to Reset the Worker so its sessions die with it.
	OnCrash func(addr string)
}

// FaultTransport wraps a Transport with deterministic fault injection:
// drops, delays, corrupted responses, mid-stream disconnects, and
// scheduled whole-worker crashes. It is how every failure path of the
// coordinator is exercised by reproducible tests.
type FaultTransport struct {
	Inner Transport

	mu      sync.Mutex
	cfg     FaultConfig
	rng     *rand.Rand
	calls   map[string]int
	crashed map[string]bool
}

// NewFaultTransport wraps inner with the given fault plan.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultTransport{
		Inner:   inner,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(seed)),
		calls:   make(map[string]int),
		crashed: make(map[string]bool),
	}
}

func (t *FaultTransport) Do(ctx context.Context, addr, path string, body []byte) ([]byte, error) {
	sessionRPC := path == pathOpen || path == pathSupply || path == pathClose

	t.mu.Lock()
	if sessionRPC && !t.crashed[addr] {
		t.calls[addr]++
		if after, ok := t.cfg.CrashAfter[addr]; ok && t.calls[addr] > after {
			t.crashed[addr] = true
			if t.cfg.OnCrash != nil {
				defer t.cfg.OnCrash(addr)
			}
		}
	}
	crashed := t.crashed[addr]
	var delay time.Duration
	var drop, corrupt, disconnect bool
	if !crashed && sessionRPC {
		if t.cfg.DelayProb > 0 && t.rng.Float64() < t.cfg.DelayProb && t.cfg.MaxDelay > 0 {
			delay = time.Duration(t.rng.Int63n(int64(t.cfg.MaxDelay))) + 1
		}
		drop = t.cfg.DropProb > 0 && t.rng.Float64() < t.cfg.DropProb
		corrupt = t.cfg.CorruptProb > 0 && t.rng.Float64() < t.cfg.CorruptProb
		disconnect = t.cfg.DisconnectProb > 0 && t.rng.Float64() < t.cfg.DisconnectProb
	}
	t.mu.Unlock()

	if crashed {
		return nil, fmt.Errorf("fleet: connect %s: worker crashed (injected)", addr)
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if drop {
		// Lost before delivery: the worker never saw it.
		return nil, fmt.Errorf("fleet: %s %s: request dropped (injected)", addr, path)
	}
	resp, err := t.Inner.Do(ctx, addr, path, body)
	if err != nil {
		return nil, err
	}
	if disconnect {
		// The worker processed the RPC; the response died on the wire.
		return nil, fmt.Errorf("fleet: %s %s: connection reset mid-response (injected)", addr, path)
	}
	if corrupt && len(resp) > 0 {
		t.mu.Lock()
		i := t.rng.Intn(len(resp))
		t.mu.Unlock()
		mangled := append([]byte(nil), resp...)
		mangled[i] ^= 0x40
		return mangled, nil
	}
	return resp, nil
}
