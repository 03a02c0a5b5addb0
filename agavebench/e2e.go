package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"syscall"
	"time"
)

// passTimeout bounds one `agave` invocation; a hung pass is killed with
// its whole process group and counts as failed.
const passTimeout = 120 * time.Second

// sample is one pass as its caller sees it: host wall time, the user+sys
// CPU of the invocation and every worker it reaped, and the largest
// resident set among them (wait4's rusage covers reaped descendants).
type sample struct {
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	stdout []byte
}

// invoke runs bin with args as one closed-loop pass.
func invoke(bin string, args []string) (sample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	s := sample{wall: time.Since(start), stdout: stdout.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		s.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		msg := stderr.String()
		if len(msg) > 2000 {
			msg = msg[:2000]
		}
		return s, fmt.Errorf("agave %v: %v: %s", args, err, msg)
	}
	return s, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest holds a pass's stdout to its input's expected digest:
// pinned for the shipped seed; for any other seed the input's first pass
// sets it and every later pass must match.
func checkDigest(digests []string, input int, stdout []byte) error {
	d := digest(stdout)
	if digests[input] == "" {
		digests[input] = d
	} else if d != digests[input] {
		return fmt.Errorf("stdout sha256 %s, want %s", d, digests[input])
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// default exclusive method); with one value all three are that value.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// freshDir empties dir for the next pass.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
