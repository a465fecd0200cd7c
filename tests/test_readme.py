import re
from pathlib import Path

import normdesign
from normdesign import arith, cli, design, harmonic, ring, shells, theta

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)
DELETED = (
    "is_t_design",
    "verify_theorem_main",
    "claimed_T",
    "norm_form_float",
    "Factorization",
    "primes_up_to",
    "basis_pair",
    "norm_form_poly",
    "ThetaSeries",
    "shell_to_json",
    "theta_series_to_json_dict",
    "to_json_dict",
    "require_admissible",
    "basis_shell_sums",
    "re_w",
    "is_empty",
    "_require_nonempty",
    "_half_lattice_norms_upto",
    "_default_coprime_pairs",
    "_crt_join",
    "_OUTER_MAX_MODULUS",
    "integer_form",
    "_int_form",
    "UsageError",
    "_check_degree",
    "_ZERO",
    "_ZERO_PARTS",
    "_MUL_NT",
    "_report_json",
    "MAX_THETA_BITS_WORK",
    "_linear_power",
    "in_span",
    "shell_orbits",
    "_powers",
    "norm_shell",
    "SCAN_MAX_ROWS",
    "evaluate_float",
)


def _in_backticks(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    return any(word.search(span) for span in re.findall(r"`([^`\n]+)`", README))


def test_every_export_imports_and_is_documented():
    for name in normdesign.__all__:
        assert hasattr(normdesign, name), name
        assert _in_backticks(name), name


def test_deleted_names_are_gone():
    for name in DELETED:
        assert name not in normdesign.__all__
        assert not hasattr(normdesign, name), name
        for module in (arith, cli, design, harmonic, ring, shells, theta):
            assert not hasattr(module, name), (module.__name__, name)
        assert not hasattr(harmonic.BivarPoly, name), name  # nor a deleted method
        assert name not in README, name
    # u^e has one route, ring.powers; "power" is too common a word for the
    # README substring check above, so it is checked here alone
    assert not hasattr(ring, "power") and not hasattr(theta, "power")


def test_design_report_example_is_verify_output(capsys):
    # the README quotes the design-report JSON object byte for byte
    example = next(
        line for line in README.splitlines() if line.startswith('{"D":3,"failing"')
    )
    assert cli.run(["verify", "3", "691", "--jmax", "6", "--format", "json"]) == 0
    assert capsys.readouterr().out == example + "\n"
