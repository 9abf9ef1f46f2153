package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/gridd"
	"repro/internal/griddclient"
)

// clockTick is the kernel's USER_HZ, the unit of the CPU fields in
// /proc/<pid>/stat. It is 100 on every Linux port Go supports; reading
// it properly needs sysconf, which needs cgo.
const clockTick = 100

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command, want >= 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: stime: %w", err)
	}
	return time.Duration(ut+st) * (time.Second / clockTick), nil
}

// procCPU reads a live process's CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatusField reads one "Key:   value [kB]" number out of
// /proc/<pid>/status text.
func parseStatusField(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("status: no %s field", key)
}

// procStatus reads VmHWM (peak resident set, MB) and Threads.
func procStatus(pid int) (peakMB float64, threads int64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	kb, err := parseStatusField(string(b), "VmHWM")
	if err != nil {
		return 0, 0, err
	}
	threads, err = parseStatusField(string(b), "Threads")
	return float64(kb) / 1024, threads, err
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// daemon is one spawned cmd/gridd process.
type daemon struct {
	cmd   *exec.Cmd
	url   string
	spawn time.Duration // exec -> first /healthz 200

	mu    sync.Mutex
	lines []string      // stdout after the listening line
	done  chan struct{} // closed when stdout hits EOF
}

// startDaemon execs the gridd binary on a free loopback port with the
// given -res specs, parses its URL from the "listening on" line and
// waits for /healthz.
func startDaemon(ctx context.Context, bin string, specs []string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	for _, s := range specs {
		args = append(args, "-res", s)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gridd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	rd := bufio.NewReader(out)
	first, err := rd.ReadString('\n')
	if err == nil {
		_, rest, ok := strings.Cut(first, "listening on ")
		if !ok {
			err = fmt.Errorf("gridd: unexpected first line %q", first)
		}
		d.url, _, _ = strings.Cut(rest, " ")
	}
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, fmt.Errorf("gridd: reading listen line: %w", err)
	}
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(rd)
		for sc.Scan() {
			d.mu.Lock()
			d.lines = append(d.lines, sc.Text())
			d.mu.Unlock()
		}
	}()
	cli := griddclient.New(d.url, 1)
	for {
		if _, err = cli.Healthz(ctx); err == nil {
			break
		}
		if time.Since(t0) > 10*time.Second || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("gridd: /healthz never answered: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.spawn = time.Since(t0)
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill ends the daemon without ceremony; for error paths.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	_ = d.cmd.Wait()
}

// stop sends SIGTERM, waits for the process, and reports how long the
// drain took. It is an error if the daemon exits non-zero or had to
// revoke a lease: every workload returns what it took.
func (d *daemon) stop() (time.Duration, error) {
	t0 := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, fmt.Errorf("gridd: SIGTERM: %w", err)
	}
	<-d.done
	err := d.cmd.Wait()
	took := time.Since(t0)
	if err != nil {
		return took, fmt.Errorf("gridd: exit: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range d.lines {
		if strings.Contains(l, "drained,") {
			if !strings.HasSuffix(l, "drained, 0 revoked") {
				return took, fmt.Errorf("gridd: drain revoked leases: %q", l)
			}
			return took, nil
		}
	}
	return took, fmt.Errorf("gridd: no drain line in %q", d.lines)
}

// checkLedger verifies the daemon's books for one resource after a
// repetition: every grant was returned or revoked, nothing is still
// out, and the fenced resource never double-allocated or double-freed.
func checkLedger(st gridd.StatsReply) error {
	switch {
	case st.Grants != st.Releases+st.Revokes:
		return fmt.Errorf("%s: grants %d != releases %d + revokes %d", st.Resource, st.Grants, st.Releases, st.Revokes)
	case st.Outstanding != 0:
		return fmt.Errorf("%s: %d units outstanding", st.Resource, st.Outstanding)
	case st.Phantoms != 0:
		return fmt.Errorf("%s: %d phantom grants", st.Resource, st.Phantoms)
	case st.DoubleFrees != 0:
		return fmt.Errorf("%s: %d double frees", st.Resource, st.DoubleFrees)
	}
	return nil
}
