package pipeline

import (
	"context"
	"errors"
	"testing"

	"ursa/internal/machine"
	"ursa/internal/workload"
)

// TestCompileFuncCtxCancelled: a cancelled pipeline Options.Ctx aborts
// multi-block compilation with ctx.Err().
func TestCompileFuncCtxCancelled(t *testing.T) {
	f := workload.PaperExample(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := CompileFunc(f, machine.VLIW(2, 3), URSA, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CompileFunc err = %v, want context.Canceled", err)
	}
}
