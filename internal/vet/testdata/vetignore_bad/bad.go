// Package thing exercises //vet:ignore directive validation: justified
// directives suppress, unjustified or unknown ones are themselves
// findings and suppress nothing.
package thing

import "os"

// justified drops an error under a justified directive: suppressed.
func justified() {
	os.Remove("x") //vet:ignore errdrop fixture exercises a justified directive
}

// bare carries an unjustified directive: reported, suppresses nothing.
func bare() {
	os.Remove("x") //vet:ignore errdrop
}

// unknown names a nonexistent analyzer: reported, suppresses nothing.
func unknown() {
	os.Remove("x") //vet:ignore nosuch because reasons
}
