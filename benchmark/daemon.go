package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The system under test is the shipped daemon binary, run as a child
// process so that none of the generator's CPU or memory is billed to
// it. Only -addr, -rate, -warm-minutes and -history-file are set;
// every other flag stays at its default.
const (
	daemonRateTPM     = 45e6 // above the splitter's SP at p=3, so calibration sees saturation
	daemonWarmMinutes = 1440
)

// daemon is one running caladrius child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr *os.File
	// healthy is when the first health probe succeeded. The daemon
	// starts its scraper, resolver and profiler tickers within a
	// millisecond of listening, so their ticks fall at healthy+5s·k,
	// +15s·k and +10s·k.
	healthy time.Time
	bootS   float64
	waitCh  chan error // receives cmd.Wait's result once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon executes bin with the benchmark's fixed flags, gives it
// a private copy of the generated history (the daemon rewrites the
// file on shutdown) and waits for the first healthy response.
func startDaemon(bin, historySrc, dir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	history := filepath.Join(dir, "history.json")
	if err := copyFile(historySrc, history); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.stderr"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-rate", strconv.FormatFloat(daemonRateTPM, 'g', -1, 64),
		"-warm-minutes", strconv.Itoa(daemonWarmMinutes),
		"-history-file", history,
	)
	cmd.Stderr = logf
	started := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, stderr: logf, waitCh: make(chan error, 1)}
	go func() { d.waitCh <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	deadline := started.Add(60 * time.Second)
	for {
		resp, err := client.Get(d.url + "/api/v1/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case werr := <-d.waitCh:
			logf.Close()
			return nil, fmt.Errorf("daemon exited during boot: %v (see %s)", werr, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("daemon not healthy after 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	client.CloseIdleConnections()
	d.healthy = time.Now()
	d.bootS = d.healthy.Sub(started).Seconds()
	return d, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// stop asks the daemon to shut down cleanly and waits for it; a daemon
// still running after 20 s is killed. A non-zero exit is an error: the
// shutdown path (final scrape, history snapshot) is part of the system.
func (d *daemon) stop() error {
	defer d.stderr.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.waitCh:
		if err != nil {
			return fmt.Errorf("daemon shutdown: %w", err)
		}
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.waitCh
		return errors.New("daemon ignored SIGTERM for 20s; killed")
	}
}

// kill ends a daemon whose shutdown is of no interest (the extra
// set-up repetitions) and waits until it is gone.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.waitCh
	d.stderr.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuSeconds is the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.pid()) + "/stat")
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPUTicks(b)
	if err != nil {
		return 0, err
	}
	return float64(ticks) / clockTicksPerSecond, nil
}

// peakRSSMB is the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.pid()) + "/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWMkB(b)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 on every
// architecture Go supports.
const clockTicksPerSecond = 100

// parseStatCPUTicks extracts utime+stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat. The command name in field 2 may hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPUTicks(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	fields := strings.Fields(string(stat[i+1:]))
	// fields[0] is field 3 (state), so utime and stime sit at 11 and 12.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseVmHWMkB extracts the VmHWM line from /proc/<pid>/status.
func parseVmHWMkB(status []byte) (uint64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}
