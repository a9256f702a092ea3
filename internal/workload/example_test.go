package workload_test

import (
	"fmt"

	"cachewrite/internal/workload"
)

// Example generates a benchmark trace and prints its Table 1 row.
func Example() {
	t, err := workload.Generate("liver", 1)
	if err != nil {
		panic(err)
	}
	s := t.Stats()
	fmt.Printf("%s: %d instructions, %d reads, %d writes\n",
		t.Name, s.Instructions, s.Reads, s.Writes)
	// Output:
	// liver: 693129 instructions, 277290 reads, 91128 writes
}
