// Jobsubmit: the paper's §5 submitter scripts, verbatim, executed by the
// ftsh interpreter against the simulated Condor cluster in virtual time.
//
// One hundred clients run the Aloha script, then one hundred run the Ethernet
// script against a deliberately small FD table, for ten virtual minutes
// each. The Ethernet script is the paper's:
//
//	try for 5 minutes
//	  cut -f2 /proc/sys/fs/file-nr -> n
//	  if ${n} .lt. 1000
//	    failure
//	  else
//	    condor_submit submit.job
//	  end
//	end
//
// Run with: go run ./examples/jobsubmit
package main

import (
	"fmt"
	"time"

	"repro/internal/condor"
	"repro/internal/ftsh/interp"
	"repro/internal/proc"
	"repro/internal/sim"
)

const alohaScript = `
while true
  try for 5 minutes
    condor_submit submit.job
  end
end
`

const ethernetScript = `
while true
  try for 5 minutes
    cut -f2 /proc/sys/fs/file-nr -> n
    if ${n} .lt. 1000
      failure
    else
      condor_submit submit.job
    end
  end
end
`

func main() {
	for _, c := range []struct{ name, script string }{
		{"Aloha", alohaScript},
		{"Ethernet", ethernetScript},
	} {
		jobs, crashes := run(c.script)
		fmt.Printf("%-9s 100 clients, 10 virtual minutes: jobs=%-5d schedd crashes=%d\n",
			c.name, jobs, crashes)
	}
}

// run executes the given client script in 100 simulated processes against
// one cluster and reports total jobs and schedd crashes.
func run(script string) (jobs, crashes int64) {
	e := sim.New(7)
	// A small FD table so 100 clients are enough to saturate it; the
	// script's 1000-FD threshold stays the same as the paper's.
	cl := condor.NewCluster(e.RT(), condor.Config{FDCapacity: 1600})
	ctx, cancel := e.WithTimeout(e.Context(), 10*time.Minute)
	defer cancel()
	cl.StartHousekeeping(ctx)

	// Expose the cluster to scripts as external commands.
	runner := proc.NewMapRunner()
	condor.Install(runner, cl)

	for i := 0; i < 100; i++ {
		e.Spawn("client", func(p *sim.Proc) {
			in := interp.New(interp.Config{Runner: runner, Runtime: p})
			_ = in.RunSource(ctx, script)
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return cl.Schedd.Jobs, cl.Schedd.Crashes
}
