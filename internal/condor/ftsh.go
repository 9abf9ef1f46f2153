package condor

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/ftsh/interp"
	"repro/internal/proc"
)

// Install exposes the cluster to ftsh scripts as the two commands the
// paper's §5 submitter scripts run: condor_submit submits one job from
// the calling process, and cut prints the free FDs, which the scripts
// read as `cut -f2 /proc/sys/fs/file-nr` (the simulated FD table is the
// kernel's).
func Install(r *proc.MapRunner, cl *Cluster) {
	r.Register("condor_submit", func(ctx context.Context, rt core.Runtime, _ *interp.Command) error {
		return cl.Schedd.Submit(rt.(core.Proc), ctx)
	})
	r.Register("cut", func(_ context.Context, _ core.Runtime, cmd *interp.Command) error {
		fmt.Fprintln(cmd.Stdout, cl.FDs.Sense().Free())
		return nil
	})
}
