//go:build !unix

package engine

import "os"

// readFile returns the contents of the file at name.
func readFile(name string) ([]byte, error) { return os.ReadFile(name) }
