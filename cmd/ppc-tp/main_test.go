package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ppclust"
)

// runMainEnv names the environment variable that makes the test binary
// run main with the arguments it holds, one per line, instead of the
// tests: the way to observe ppc-tp's exit code.
const runMainEnv = "PPC_TP_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(runMainEnv); ok {
		os.Args = append([]string{"ppc-tp"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestShardAddrsOutsideRangeIsUsage: the shard count is the number of
// -shard-addrs entries, so more than MaxTPShards of them, or a single one
// (one shard is the unsharded third party, which dials no worker), exit
// with the usage code before anything listens.
func TestShardAddrsOutsideRangeIsUsage(t *testing.T) {
	addrs := func(n int) string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("127.0.0.1:%d", 1+i)
		}
		return strings.Join(out, ",")
	}
	for _, n := range []int{ppclust.MaxTPShards + 1, 1} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), runMainEnv+"="+strings.Join([]string{
			"-listen", "127.0.0.1:0", "-holders", "A,B", "-schema", "age:numeric", "-shard-addrs", addrs(n),
		}, "\n"))
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != exitUsage {
			t.Fatalf("%d -shard-addrs entries: %v, want exit code %d\n%s", n, err, exitUsage, out)
		}
		if want := fmt.Sprintf("%d -shard-addrs entries", n); !strings.Contains(string(out), want) {
			t.Fatalf("%d -shard-addrs entries: the usage error does not say %q:\n%s", n, want, out)
		}
	}
}
