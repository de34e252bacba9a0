// Package proctest stops the child processes tests start, the same way
// on every path: SIGINT, a bounded wait for the child to drain and
// exit, then Kill and Wait. Registered from t.Cleanup, it runs even
// when an assertion fails or the drain hangs, so no child outlives its
// test.
package proctest

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"
)

// Grace is how long a stopper waits after SIGINT before it kills the child.
const Grace = 15 * time.Second

// ErrKilled reports a child that did not exit within the grace period
// after SIGINT and was killed.
var ErrKilled = errors.New("no exit within the grace period after SIGINT; killed")

// Stopper returns a function that stops the started cmd: SIGINT, up to
// Grace for it to exit, then Kill and Wait. It reports the exit error of
// a child that stopped within the grace period, or ErrKilled. The
// function is registered with t.Cleanup and is safe to call more than
// once (later calls return the first result), so a test calls it
// explicitly where it asserts a clean exit and relies on the cleanup
// everywhere else.
func Stopper(t testing.TB, cmd *exec.Cmd) func() error {
	var once sync.Once
	var err error
	stop := func() error {
		once.Do(func() { err = interrupt(cmd, Grace) })
		return err
	}
	t.Cleanup(func() { stop() })
	return stop
}

// interrupt sends SIGINT, waits up to grace, then kills; it always
// returns with the child reaped.
func interrupt(cmd *exec.Cmd, grace time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	if cmd.Process.Signal(os.Interrupt) != nil {
		// The child has already exited: report how.
		cmd.Process.Kill()
		return <-done
	}
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s: %w", cmd.Path, ErrKilled)
	}
}
