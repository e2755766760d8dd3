package erlang_test

import (
	"fmt"
	"log"

	"repro/internal/erlang"
)

// ExampleB evaluates the paper's Eq. (1) at the case-study operating point:
// four consolidated servers offered 1.52 Erlangs.
func ExampleB() {
	b, err := erlang.B(4, 1.52)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("B(4, 1.52) = %.4f\n", b)
	// Output:
	// B(4, 1.52) = 0.0496
}

// ExampleServers runs the iterative sizing step of the paper's Fig. 4.
func ExampleServers() {
	n, err := erlang.Servers(2.5, 0.02, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("servers for 2.5 Erlangs at B<=0.02: %d\n", n)
	// Output:
	// servers for 2.5 Erlangs at B<=0.02: 7
}

// ExampleTraffic computes the admissible load behind the paper's
// intensive-workload selection rule.
func ExampleTraffic() {
	rho, err := erlang.Traffic(3, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3 servers carry %.3f Erlangs at B<=0.05\n", rho)
	// Output:
	// 3 servers carry 0.899 Erlangs at B<=0.05
}

// ExampleBContinuous evaluates the fractional-server extension used for
// heterogeneous pools: 3 AMD machines plus 1 Intel machine worth 0.83 of
// an AMD give 3.83 reference servers.
func ExampleBContinuous() {
	b, err := erlang.BContinuous(3.83, 1.52)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("B(3.83, 1.52) = %.4f\n", b)
	// Output:
	// B(3.83, 1.52) = 0.0598
}
