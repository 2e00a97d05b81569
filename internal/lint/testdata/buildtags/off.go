//go:build linttag

package buildtags

// mode is declared once per build: this file only under the linttag tag.
const mode = "tagged"
