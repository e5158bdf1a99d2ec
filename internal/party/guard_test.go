package party

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/leakcheck"
	"ppclust/internal/wire"
)

// TestChaosGuardEndUnblocksRecv: ending the guard — a classified failure,
// or the session deadline with no failure — closes a bound conduit,
// unparks a Recv blocked on it, and both that Recv and a later Send report
// the classified cause rather than a bare closed conduit.
func TestChaosGuardEndUnblocksRecv(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		end  func(g *guard)
		want error
	}{
		{"fail", Config{}, func(g *guard) { g.fail(fmt.Errorf("%w: scripted", ErrAborted)) }, ErrAborted},
		{"deadline", Config{SessionTimeout: 50 * time.Millisecond}, func(*guard) {}, ErrSessionTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			g := newGuard("A", tc.cfg)
			defer g.release()
			a, b := wire.Pipe()
			defer b.Close()
			bound := g.bind(a)
			done := make(chan error, 1)
			go func() {
				_, err := bound.Recv()
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			tc.end(g)
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Fatalf("parked Recv: want %v, got %v", tc.want, err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("ending the guard did not unblock Recv")
			}
			if err := bound.Send([]byte("late")); !errors.Is(err, tc.want) {
				t.Fatalf("late Send: want %v, got %v", tc.want, err)
			}
		})
	}
}

// TestChaosGuardCleanRunKeepsConduitsOpen: after a clean RunContext every
// party hands its conduits back open — still open once SessionTimeout has
// passed, because release detached the close before the deadline could
// fire it.
func TestChaosGuardCleanRunKeepsConduitsOpen(t *testing.T) {
	leakcheck.Check(t)
	cfg := chaosConfig()
	cfg.SessionTimeout = 2 * time.Second
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	holders := make([]string, len(parts))
	ends := map[string]map[string]wire.Conduit{TPName: {}}
	for i, p := range parts {
		holders[i] = p.Site
		ends[p.Site] = map[string]wire.Conduit{}
	}
	// Each link keeps both ends, so a frame sent on one can be read from
	// the other after the session.
	type link struct{ a, b wire.Conduit }
	var links []link
	connect := func(x, y string) {
		a, b := wire.Pipe()
		ends[x][y], ends[y][x] = a, b
		links = append(links, link{a, b})
	}
	for i, h := range holders {
		for _, peer := range holders[i+1:] {
			connect(h, peer)
		}
		connect(h, TPName)
	}
	defer func() {
		for _, l := range links {
			l.a.Close()
			l.b.Close()
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, len(parts)+1)
	for _, p := range parts {
		wg.Add(1)
		go func(p dataset.Partition) {
			defer wg.Done()
			h, err := NewHolder(p.Site, p.Table, holders, cfg, reqs[p.Site], ends[p.Site], deterministicRandom(31)(p.Site))
			if err == nil {
				_, err = h.RunContext(context.Background())
			}
			errs <- err
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tp, err := NewThirdParty(holders, cfg, ends[TPName], deterministicRandom(31)(TPName))
		if err == nil {
			_, err = tp.RunContext(context.Background())
		}
		errs <- err
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("clean session: %v", err)
		}
	}
	time.Sleep(time.Until(start.Add(cfg.SessionTimeout + 200*time.Millisecond)))
	for i, l := range links {
		if err := l.a.Send([]byte("still open")); err != nil {
			t.Fatalf("link %d: send after the session: %v", i, err)
		}
		if got, err := l.b.Recv(); err != nil || string(got) != "still open" {
			t.Fatalf("link %d: frame after the session: %q %v", i, got, err)
		}
	}
}

// TestChaosGuardBindStartsNoGoroutine pins that the guard's close is one
// AfterFunc on its context, not a watcher goroutine per bound conduit.
func TestChaosGuardBindStartsNoGoroutine(t *testing.T) {
	const n = 64
	g := newGuard("A", Config{SessionTimeout: time.Minute})
	defer g.release()
	before := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		a, b := wire.Pipe()
		defer a.Close()
		defer b.Close()
		g.bind(a)
	}
	// Half of n, not zero: goroutines other tests left winding down may
	// come and go meanwhile, but one goroutine per conduit cannot hide.
	if grew := runtime.NumGoroutine() - before; grew >= n/2 {
		t.Fatalf("binding %d conduits started %d goroutines", n, grew)
	}
}
