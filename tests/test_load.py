"""Loading joints: the vectorised loader against the reference per-atom
loops in `oracles`, the fields a joint keeps and what its load allocates,
and the summary built from those fields against one built from each
mask's bytes at the full width of ceil(n/8)."""

import gc
import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

import oracles
from maxdecouple import InvalidDistributionError, JointBernoulli, NonnegJoint
from maxdecouple import conjectured_extremal, dist, one_hot_uniform, permute_variables, product
from maxdecouple.cli import EXIT_INPUT, EXIT_OK, main
from maxdecouple.dist import JointSummary, MarginalVector
from test_bounds import bits_charge

WIDTHS = (1, 7, 8, 9, 64, 65, 200)
CASES_PER_WIDTH = 150


def outcome(load, *args):
    """What a loader makes of its input: ("ok", repr of the atoms and the
    type of every number in them) or ("error", the message)."""
    try:
        atoms = load(*args)
    except (InvalidDistributionError, oracles.OracleReject) as exc:
        return "error", str(exc)
    types = [(type(key).__name__, type(prob).__name__) for key, prob in atoms]
    return "ok", repr(atoms), types


def random_weights(rng, count):
    weights = [rng.random() + 1e-3 for _ in range(count)]
    total = sum(weights)
    return [w / total for w in weights]


BAD_NUMBERS = (math.nan, math.inf, -math.inf, -0.25, 10**400, -(10**400), True, False)
NOT_OBJECTS = ([], "atom", None, 3, [{"mask": 0, "p": 1.0}])


def corrupt_bernoulli(rng, n, entries):
    """Apply one random fault to a list of {"mask", "p"} entries."""
    i = rng.randrange(len(entries))
    entry = entries[i]
    if not (isinstance(entry, dict) and {"mask", "p"} <= entry.keys()):
        return entries  # already broken
    fault = rng.randrange(9)
    if fault == 0:  # duplicate mask
        entry["mask"] = rng.choice([e for e in entries if isinstance(e, dict) and "mask" in e])["mask"]
    elif fault == 1:  # mask at or past 2^n
        entry["mask"] = (1 << n) + rng.getrandbits(rng.choice((1, n, n + 70)))
    elif fault == 2:  # negative mask, -1 among them
        entry["mask"] = -rng.choice((1, 2, 1 << n, 1 << (n + 70)))
    elif fault == 3:
        entry["mask"] = rng.choice((True, False, 1.0, "1", None))
    elif fault == 4:
        entry["p"] = rng.choice(BAD_NUMBERS)
    elif fault == 5:
        entry["p"] = rng.choice(("0.5", None, [0.5]))
    elif fault == 6:
        del entry[rng.choice(("mask", "p"))]
    elif fault == 7:
        entries[i] = rng.choice(NOT_OBJECTS)
    elif type(entry["p"]) in (int, float):  # mass off by more than the tolerance
        entry["p"] = entry["p"] * 2 + 1
    return entries


def random_bernoulli_doc(rng, n):
    masks = set()
    count = rng.randint(1, min(1 << n, 40))
    while len(masks) < count:
        masks.add(rng.getrandbits(n))
    masks = list(masks)
    rng.shuffle(masks)
    entries = [{"mask": m, "p": p} for m, p in zip(masks, random_weights(rng, count))]
    if count == 1 and rng.random() < 0.5:
        entries[0]["p"] = 1  # an integer probability is a JSON number too
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        entries = corrupt_bernoulli(rng, n, entries)
    return {"kind": "bernoulli-joint", "n": n, "atoms": entries}


def corrupt_nonneg(rng, n, entries):
    """Apply one random fault to a list of {"values", "p"} entries."""
    i = rng.randrange(len(entries))
    entry = entries[i]
    if not (isinstance(entry, dict) and {"values", "p"} <= entry.keys()
            and isinstance(entry["values"], list) and entry["values"]):
        return entries  # already broken
    fault = rng.randrange(9)
    if fault == 0:  # wrong length
        entry["values"] = entry["values"] + [1.0] if rng.random() < 0.5 else entry["values"][1:]
    elif fault == 1:
        entry["values"] = rng.choice(("1", None, 1.0, {"v": 1.0}))
    elif fault == 2:
        entry["values"][rng.randrange(len(entry["values"]))] = rng.choice(BAD_NUMBERS)
    elif fault == 3:
        entry["values"][rng.randrange(len(entry["values"]))] = rng.choice(("1", None, [1.0]))
    elif fault == 4:
        entry["p"] = rng.choice(BAD_NUMBERS)
    elif fault == 5:
        entry["p"] = rng.choice(("0.5", None, [0.5]))
    elif fault == 6:
        del entry[rng.choice(("values", "p"))]
    elif fault == 7:
        entries[i] = rng.choice(NOT_OBJECTS)
    elif type(entry["p"]) in (int, float):
        entry["p"] = entry["p"] * 2 + 1
    return entries


def random_nonneg_doc(rng, n):
    count = rng.randint(1, 30)
    entries = [
        {"values": [rng.choice((0.0, -0.0, 1, rng.uniform(0, 10))) for _ in range(n)], "p": p}
        for p in random_weights(rng, count)
    ]
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        entries = corrupt_nonneg(rng, n, entries)
    return {"kind": "nonneg-joint", "n": n, "atoms": entries}


class TestLoaderMatchesReference:
    @pytest.mark.parametrize("n", WIDTHS)
    def test_bernoulli_json(self, n):
        rng = random.Random(n)
        errors = 0
        for _ in range(CASES_PER_WIDTH):
            doc = random_bernoulli_doc(rng, n)
            want = outcome(oracles.oracle_bernoulli_from_json, doc)
            got = outcome(lambda d: JointBernoulli.from_json_dict(d).atoms, doc)
            assert got == want, doc
            errors += want[0] == "error"
        assert 0 < errors < CASES_PER_WIDTH

    @pytest.mark.parametrize("n", WIDTHS)
    def test_bernoulli_constructor(self, n):
        # Pairs from the same documents, bad field types among them: the
        # constructor and the JSON reader share the type rules.
        rng = random.Random(1000 + n)
        for _ in range(CASES_PER_WIDTH):
            entries = random_bernoulli_doc(rng, n)["atoms"]
            pairs = [
                (e["mask"], e["p"]) for e in entries
                if isinstance(e, dict) and {"mask", "p"} <= e.keys()
            ]
            table = dict(pairs) if rng.random() < 0.3 else pairs
            want = outcome(oracles.oracle_bernoulli_atoms, n, table)
            got = outcome(lambda *a: JointBernoulli(*a).atoms, n, table)
            assert got == want, pairs

    @pytest.mark.parametrize("n", WIDTHS)
    def test_nonneg_json(self, n):
        rng = random.Random(2000 + n)
        errors = 0
        for _ in range(CASES_PER_WIDTH):
            doc = random_nonneg_doc(rng, n)
            want = outcome(oracles.oracle_nonneg_from_json, doc)
            got = outcome(lambda d: NonnegJoint.from_json_dict(d).atoms, doc)
            assert got == want, doc
            errors += want[0] == "error"
        assert 0 < errors < CASES_PER_WIDTH

    @pytest.mark.parametrize("n", WIDTHS)
    def test_nonneg_constructor(self, n):
        rng = random.Random(3000 + n)
        for _ in range(CASES_PER_WIDTH):
            entries = random_nonneg_doc(rng, n)["atoms"]
            atoms = [
                (e["values"], e["p"]) for e in entries
                if isinstance(e, dict) and {"values", "p"} <= e.keys()
            ]
            want = outcome(oracles.oracle_nonneg_atoms, n, atoms)
            got = outcome(lambda *a: NonnegJoint(*a).atoms, n, atoms)
            assert got == want, atoms

    def test_views_are_built_once(self):
        j = JointBernoulli.from_json_dict(conjectured_extremal(6).to_json_dict())
        assert j.masks is j.masks and j.probs is j.probs
        assert j.atoms == tuple(zip(j.masks, j.probs))


def summary_from_mask_bytes(joint):
    """The summary as built before the bit table was kept: each mask's
    ceil(n/8) little-endian bytes, joined, unpacked."""
    width = (joint.n + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in joint.masks)
    table = np.frombuffer(raw, dtype=np.uint8).reshape(len(joint.masks), width)
    bits = np.unpackbits(table, axis=1, count=joint.n, bitorder="little")
    return dist._summarize(bits.view(bool), np.array(joint.probs, dtype=np.float64))


def bit_pattern(value):
    arr = np.asarray(value.p if isinstance(value, MarginalVector) else value)
    return arr.dtype.str, arr.shape, arr.tobytes()


def reloaded(joint):
    return JointBernoulli.from_json_dict(json.loads(json.dumps(joint.to_json_dict())))


def table_inputs():
    rng = random.Random(8)
    dense = product(MarginalVector([rng.uniform(0.05, 0.5) for _ in range(15)]))
    perm = list(range(100))
    rng.shuffle(perm)
    extremal = permute_variables(conjectured_extremal(100), perm)
    two_atom = JointBernoulli(2000, {0: 0.375, rng.getrandbits(2000): 0.625})
    masks = set()
    while len(masks) < 40_000:
        masks.add(rng.getrandbits(40))
    many = JointBernoulli(40, dict(zip(masks, random_weights(rng, len(masks)))))
    return {"product": dense, "extremal": extremal, "two-atom": two_atom, "40000-atom": many}


class TestKeptTable:
    @pytest.mark.parametrize("name", ["product", "extremal", "two-atom", "40000-atom"])
    def test_summary_is_bit_identical_to_mask_bytes(self, name):
        joint = reloaded(table_inputs()[name])
        want = summary_from_mask_bytes(joint)
        got = joint.summary
        for field in JointSummary._fields:
            assert bit_pattern(getattr(got, field)) == bit_pattern(getattr(want, field)), field

    def test_sample_needs_no_summary_budget(self, tmp_path, monkeypatch, capsys):
        joint = conjectured_extremal(12)
        path = str(tmp_path / "extremal.json")
        (tmp_path / "extremal.json").write_text(json.dumps(joint.to_json_dict()))
        argv = ["sample", "--in", path, "--seed", "5", "--count", "1000"]
        assert main(argv) == EXIT_OK
        unbounded = capsys.readouterr().out
        atoms = len(joint.atoms)
        charge = bits_charge(atoms, joint.n)
        monkeypatch.setattr(dist, "SUMMARY_BUDGET", atoms * joint.n - 1)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == unbounded
        assert main(["report", "--in", path]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert (f"the {atoms} x {joint.n} bit table, its packed table and one block of packed "
                f"masks needs {charge} bytes") in err


class TestKeptFields:
    @pytest.mark.parametrize("load", ["constructor", "json"])
    def test_joint_keeps_only_its_three_fields(self, load):
        joint = conjectured_extremal(12)
        if load == "json":
            joint = JointBernoulli.from_json_dict(joint.to_json_dict())
        else:
            joint = JointBernoulli(joint.n, reversed(joint.atoms))
        assert sorted(vars(joint)) == ["masks", "n", "probs"]

    def test_ascending_masks_are_not_sorted_or_scanned_for_a_repeat(self, monkeypatch):
        # Strictly ascending masks, as every file `construct` writes holds
        # them, pass one comparison scan; masks in any other order are
        # sorted and scanned for a repeat.
        def refuse(*args, **kwargs):
            raise AssertionError("sorted or scanned for a repeat")

        joint = conjectured_extremal(12)
        doc = joint.to_json_dict()
        monkeypatch.setattr(dist, "eq", refuse)
        monkeypatch.setattr(dist, "sorted", refuse, raising=False)
        assert JointBernoulli.from_json_dict(doc).masks == joint.masks
        monkeypatch.undo()
        with pytest.raises(InvalidDistributionError, match="^duplicate atom mask 1$"):
            JointBernoulli.from_json_dict(bernoulli_doc((1, 0.5), (1, 0.5)))

    def test_load_allocates_only_what_it_keeps(self):
        # Packed at full width, 20,000 one-bit masks would take 2,500 bytes
        # each, 50 MB; the load peaks at about 1.4 MiB (tracemalloc).
        doc = one_hot_uniform(20_000).to_json_dict()
        gc.collect()
        tracemalloc.start()
        try:
            JointBernoulli.from_json_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak


def bernoulli_doc(*atoms):
    return {"kind": "bernoulli-joint", "n": 2, "atoms": [{"mask": m, "p": p} for m, p in atoms]}


def nonneg_doc(*atoms):
    return {"kind": "nonneg-joint", "n": 1, "atoms": [{"values": v, "p": p} for v, p in atoms]}


class TestNamedFaults:
    def test_mask_minus_one_is_out_of_range(self):
        # Like every other negative mask, not a duplicate of a mask before it.
        want = r"^atom mask -1 out of range for n=2 \(need 0 <= mask < 2\^n\)$"
        with pytest.raises(InvalidDistributionError, match=want):
            JointBernoulli(2, {-1: 0.5, 1: 0.5})
        with pytest.raises(InvalidDistributionError, match=want):
            JointBernoulli.from_json_dict(bernoulli_doc((1, 0.5), (-1, 0.5)))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int_past_the_float_range_keeps_its_sign(self, sign):
        huge, inf = sign * 10**400, "inf" if sign > 0 else "-inf"
        want = f"^atom mask 1 has invalid probability {inf}$"
        with pytest.raises(InvalidDistributionError, match=want):
            JointBernoulli.from_json_dict(bernoulli_doc((1, huge), (2, 1.0)))
        with pytest.raises(InvalidDistributionError, match=want):
            JointBernoulli(2, {1: huge, 2: 1.0})
        for doc, what in ((nonneg_doc(([huge], 1.0)), "atoms[0].values[0]"),
                          (nonneg_doc(([1.0], 0.5), ([2.0], huge)), "atoms[1].p")):
            want = rf"^{re.escape(what)} must be finite and >= 0, got {inf}$"
            with pytest.raises(InvalidDistributionError, match=want):
                NonnegJoint.from_json_dict(doc)

    @pytest.mark.parametrize("atoms,what", [
        ({0.9: 0.5, 1: 0.5}, "atoms[0].mask must be an integer"),
        ({0: 0.5, 1.5: 0.5}, "atoms[1].mask must be an integer"),
        ({"1": 1.0}, "atoms[0].mask must be an integer"),
        ([(0, 0.5), (True, 0.5)], "atoms[1].mask must be an integer"),
        ({1: "1.0"}, "atoms[0].p must be a number"),
        ([(0, 0.0), (1, True)], "atoms[1].p must be a number"),
    ])
    def test_constructor_field_types_as_in_json(self, atoms, what):
        # The constructor coerces nothing: a bad field is named as in a file.
        with pytest.raises(InvalidDistributionError, match=f"^{re.escape(what)}$"):
            JointBernoulli(2, atoms)
        pairs = atoms.items() if isinstance(atoms, dict) else atoms
        with pytest.raises(InvalidDistributionError, match=f"^{re.escape(what)}$"):
            JointBernoulli.from_json_dict(bernoulli_doc(*pairs))

    @pytest.mark.parametrize("atoms,what", [
        ([("12", 1.0)], "atoms[0].values must be a list"),
        ([([1.0, 2.0], 0.5), ([True, 1.0], 0.5)], "atoms[1].values[0] must be a number"),
        ([(np.array([[1.0, 2.0]]), 1.0)], "atoms[0].values must be a list"),
        ([(np.array([1.0, 2.0]), "1")], "atoms[0].p must be a number"),
    ])
    def test_nonneg_constructor_field_types(self, atoms, what):
        with pytest.raises(InvalidDistributionError, match=f"^{re.escape(what)}$"):
            NonnegJoint(2, atoms)

    def test_numpy_fields_are_read_as_python_numbers(self):
        joint = JointBernoulli(2, [(np.int64(3), np.float64(0.25)), (np.uint8(0), 0.75)])
        assert joint.atoms == ((0, 0.75), (3, 0.25))
        assert [type(mask) for mask in joint.masks] == [int, int]
        rows = NonnegJoint(2, [(np.array([1, 2]), np.float32(0.5)), ((0.0, 3), 0.5)])
        assert rows.atoms == (((1.0, 2.0), 0.5), ((0.0, 3.0), 0.5))

    @pytest.mark.parametrize("n", [2.5, "2", True, None])
    def test_constructor_n_is_an_integer_as_in_json(self, n):
        for build in (lambda: JointBernoulli(n, {0: 1.0}), lambda: NonnegJoint(n, [((1.0,), 1.0)]),
                      lambda: JointBernoulli.from_json_dict({**bernoulli_doc((0, 1.0)), "n": n})):
            with pytest.raises(InvalidDistributionError, match=r"^field 'n' must be an integer$"):
                build()
