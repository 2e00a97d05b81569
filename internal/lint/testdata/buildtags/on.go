//go:build !linttag

package buildtags

// mode is declared once per build: this file in the default build.
const mode = "default"
