#!/usr/bin/env bash
# SIGILL guard for the wide-ISA kernel variants (packed GEMM, float
# GeLU and cross-entropy rows, the PCLMULQDQ CRC-32 fold): a TU
# compiled with AVX2/AVX-512/PCLMUL flags may define exactly one
# global symbol, its entry point, and no weak or COMDAT symbol (nm
# types W/w, V/v, u). A weak copy of shared inline code (a std::
# template, an inline function) could win at link time and put wide
# instructions on the path of CPUs that lack them.
#
# Usage: check_isa_variant_symbols.sh <nm> <entry> <object>...
#   <entry> is the unqualified name of the variant's entry point in
#   namespace bertprof, e.g. gemmPackedRowsAvx2 or crc32FoldPclmul.
set -uo pipefail

if [[ $# -lt 3 ]]; then
    echo "usage: $0 <nm> <entry> <object>..." >&2
    exit 2
fi
NM="$1"
ENTRY="$2"
shift 2
# Itanium mangling of bertprof::<entry>(...): the name is followed by
# the parameter types.
MANGLED="_ZN8bertprof${#ENTRY}${ENTRY}E"

status=0
for obj in "$@"; do
    if ! syms="$("${NM}" -P "${obj}")"; then
        echo "FAIL: ${NM} could not read ${obj}" >&2
        exit 1
    fi
    entries=0
    while read -r name type _; do
        # The one weak symbol allowed: the data word pointing at the
        # C++ EH personality routine, emitted when a TU needs unwind
        # cleanups (e.g. under -fsanitize=thread). It holds an
        # address, not instructions, and every copy is identical.
        [[ "${name}" == DW.ref.__gxx_personality_v0 ]] && continue
        case "${type}" in
        W | w | V | v | u)
            echo "FAIL: ${obj}: weak/COMDAT symbol ${name} (${type})"
            status=1
            ;;
        U | [a-z]) ;; # undefined references and local symbols are fine
        *)
            if [[ "${name}" == "${MANGLED}"* ]]; then
                entries=$((entries + 1))
            else
                echo "FAIL: ${obj}: exports ${name} (${type})"
                status=1
            fi
            ;;
        esac
    done <<<"${syms}"
    if [[ ${entries} -ne 1 ]]; then
        echo "FAIL: ${obj}: expected one definition of ${ENTRY}, found ${entries}"
        status=1
    fi
done
[[ ${status} -eq 0 ]] && echo "ok: $* export only ${ENTRY}"
exit "${status}"
