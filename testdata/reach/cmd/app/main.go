package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	println(lib.Live{}.Run())
	fmt.Println(lib.Live{})
}
