#!/bin/sh
# Every test selector in the CI workflow must still select something. A
# -run or -bench alternative that matches no test, or a -fuzz target that
# names none, makes its step pass without running anything (go test -run
# '^$' -fuzz '^FuzzNoSuchTarget$' prints PASS), so a renamed or deleted test
# would drop out silently. For each `go test` line of the workflow this
# lists the tests of the line's packages under its build tags and checks
# every |-alternative of its -run, -bench and -fuzz patterns against them.
#
# Usage: sh .github/check-selectors.sh [workflow]
set -euf
workflow=${1:-.github/workflows/ci.yml}
grep 'go test ' "$workflow" | grep -v -e '-list' | grep -e ' -run ' -e ' -bench ' -e ' -fuzz ' |
	while IFS= read -r line; do
		cmd=${line#*go test }
		tags=
		case "$cmd" in *'-tags purego'*) tags='-tags purego' ;; esac
		pkgs=
		for tok in $cmd; do
			case "$tok" in .|./*) pkgs="$pkgs $tok" ;; esac
		done
		# shellcheck disable=SC2086 # tags and pkgs are word lists
		names=$(go test $tags -list . $pkgs | grep -E '^(Test|Benchmark|Fuzz)') || names=
		for flag in run bench fuzz; do
			pat=$(printf '%s\n' "$cmd" | sed -n "s/.* -$flag  *'*\([^' ]*\).*/\1/p")
			if [ -z "$pat" ] || [ "$pat" = '^$' ]; then
				continue
			fi
			IFS='|'
			for alt in $pat; do
				if ! printf '%s\n' "$names" | grep -Eq -- "$alt"; then
					echo "no test in$pkgs${tags:+ ($tags)} matches -$flag '$alt' of: go test $cmd"
					exit 1
				fi
			done
			unset IFS
		done
	done
