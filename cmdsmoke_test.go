package lruleak

// Flag-surface smoke tests: every cmd/* binary must build and parse its
// flag set. -h exercises the whole flag table (every default is
// evaluated and printed), so a mis-declared or colliding flag — the
// usual casualty of flag churn like lruattack's -schedule/-probe/-roc
// additions — fails here instead of in a user's terminal. Out-of-range
// numbers must likewise be rejected up front, not hang or panic.

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCommands builds every cmd/* binary into a temporary directory.
func buildCommands(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/...")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	return bin
}

func TestCommandsParseFlags(t *testing.T) {
	cmds, err := filepath.Glob(filepath.Join("cmd", "*"))
	if err != nil || len(cmds) == 0 {
		t.Fatalf("no cmd/* directories found (err=%v)", err)
	}
	bin := buildCommands(t)
	for _, dir := range cmds {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, name), "-h")
			out, err := cmd.CombinedOutput()
			// flag.ExitOnError exits 0 on -h (flag.ErrHelp).
			if err != nil {
				t.Fatalf("%s -h exited with %v:\n%s", name, err, out)
			}
			if !strings.Contains(string(out), "Usage") && !strings.Contains(string(out), "-seed") {
				t.Errorf("%s -h printed no usage text:\n%s", name, out)
			}

			// An unknown flag must be a clean exit-2 rejection, not a
			// hang or a panic.
			cmd = exec.Command(filepath.Join(bin, name), "-definitely-not-a-flag")
			out, err = cmd.CombinedOutput()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
				t.Errorf("%s with an unknown flag: err=%v (want exit 2)\n%s", name, err, out)
			}
		})
	}
}

// Each invocation passes a well-formed but out-of-range number. Left
// unchecked, a zero sample count runs the receiver until the
// simulator's cycle wall (unbounded memory), a bad -alg runs Algorithm
// 1, and a non-positive symbol or trial count panics. Each must exit 2
// promptly with a one-line message.
func TestCommandsRejectOutOfRangeNumbers(t *testing.T) {
	bin := buildCommands(t)
	for _, args := range [][]string{
		{"lruchan", "-fig", "5", "-samples", "0"},
		{"lruchan", "-fig", "7", "-samples", "0"},
		{"lruchan", "-alg", "3"},
		{"lruchan", "-fig", "4", "-bits", "-1"},
		{"securesim", "-fig", "11", "-samples", "0"},
		{"securesim", "-fig", "11", "-samples", "-1"},
		{"lruattack", "-symbols", "0"},
		{"lruattack", "-symbols", "-3"},
		{"lruattack", "-trials", "-1"},
		{"lrutables", "-table", "1", "-trials", "0"},
		{"spectrepoc", "-disclosure", "bogus"},
		{"spectrepoc", "-secret", "AB", "-rounds", "-1"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, filepath.Join(bin, args[0]), args[1:]...).CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("still running after 10s")
			}
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
				t.Errorf("err=%v, want exit 2", err)
			}
			msg := strings.TrimSpace(string(out))
			if strings.Contains(msg, "panic:") || strings.Contains(msg, "goroutine ") {
				t.Fatalf("panicked:\n%s", msg)
			}
			if msg == "" || strings.Contains(msg, "\n") {
				t.Errorf("want a one-line message, got %q", msg)
			}
		})
	}
}
