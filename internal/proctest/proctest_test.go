package proctest

import (
	"errors"
	"os/exec"
	"testing"
	"time"
)

// TestInterruptKillsAHungChild: a child that ignores SIGINT is killed
// once the grace period runs out, and reaped.
func TestInterruptKillsAHungChild(t *testing.T) {
	cmd := exec.Command("sh", "-c", `trap "" INT; exec sleep 30`)
	if err := cmd.Start(); err != nil {
		t.Skipf("no sh: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // let the trap install
	start := time.Now()
	err := interrupt(cmd, 200*time.Millisecond)
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("err = %v, want a kill report", err)
	}
	if cmd.ProcessState == nil {
		t.Fatal("child not reaped")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("stop took %v", d)
	}
}

// TestStopperIsIdempotent: the explicit call and the cleanup share one
// stop, and a child that exits on SIGINT reports its exit.
func TestStopperIsIdempotent(t *testing.T) {
	cmd := exec.Command("sleep", "30")
	if err := cmd.Start(); err != nil {
		t.Skipf("no sleep: %v", err)
	}
	stop := Stopper(t, cmd)
	first := stop()
	if first == nil || cmd.ProcessState == nil {
		t.Fatalf("first stop: %v, reaped %v", first, cmd.ProcessState != nil)
	}
	if again := stop(); again != first {
		t.Fatalf("second stop = %v, want the first result %v", again, first)
	}
}
