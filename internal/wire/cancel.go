package wire

import (
	"context"
	"fmt"
)

// Bind couples a conduit to a context, which is how cancellation reaches
// blocking transport calls: a watcher goroutine closes the conduit the
// moment ctx ends, so a Recv parked deep in the transport (a TCP read, a
// pipe wait) unblocks promptly, and operations attempted or failing after
// cancellation report the context's cause instead of a bare closed-conduit
// error — the cause is what carries the session-level classification
// (timeout, abort) down to whoever was blocked.
//
// The returned release function detaches the watcher WITHOUT closing the
// conduit; call it when the session ends cleanly so conduit ownership
// stays with the caller and the watcher goroutine does not outlive the
// session. Release is idempotent. After release the conduit behaves as if
// never bound.
func Bind(ctx context.Context, c Conduit) (Conduit, func()) {
	b := &boundConduit{inner: c, ctx: ctx, released: make(chan struct{})}
	go func() {
		select {
		case <-ctx.Done():
			// A clean release racing the cancellation must win: the session
			// finished, so the conduit is not ours to close.
			select {
			case <-b.released:
				return
			default:
			}
			c.Close()
		case <-b.released:
		}
	}()
	return b, b.release
}

type boundConduit struct {
	inner    Conduit
	ctx      context.Context
	released chan struct{}
}

func (b *boundConduit) release() {
	select {
	case <-b.released:
	default:
		close(b.released)
	}
}

// cause maps a transport error observed after cancellation to the
// context's cause. The cause dominates: the transport error is almost
// always the ErrClosed produced by the watcher's own Close, and the cause
// is the reason that close happened.
func (b *boundConduit) cause(err error) error {
	if b.ctx.Err() != nil {
		select {
		case <-b.released:
			// Released before the error: the close came from normal
			// teardown, not the watcher — report the transport's own story.
			return err
		default:
		}
		return fmt.Errorf("wire: conduit cancelled: %w", context.Cause(b.ctx))
	}
	return err
}

func (b *boundConduit) Send(frame []byte) error {
	if b.ctx.Err() != nil {
		// After a release the binding is inert: the conduit was handed back
		// to its owner and a late cancellation must not block sends.
		select {
		case <-b.released:
		default:
			return b.cause(ErrClosed)
		}
	}
	if err := b.inner.Send(frame); err != nil {
		return b.cause(err)
	}
	return nil
}

func (b *boundConduit) Recv() ([]byte, error) {
	f, err := b.inner.Recv()
	if err != nil {
		return nil, b.cause(err)
	}
	return f, nil
}

func (b *boundConduit) RecvOwned() bool { return RecvOwned(b.inner) }

func (b *boundConduit) Close() error {
	b.release()
	return b.inner.Close()
}
