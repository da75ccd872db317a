import os
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# Child processes (the CLI, external predictors) import the same checkout
# that pyproject's ``pythonpath`` puts on this process's path.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from ilkit.chem import parse_smiles, table


def load_ions() -> dict[str, str]:
    """name -> SMILES for the bundled ion fixture."""
    from importlib import resources

    text = resources.files("ilkit").joinpath("data/ions.smi").read_text()
    out = {}
    for line in text.strip().splitlines():
        smiles, name = line.split()
        out[name] = smiles
    return out


@pytest.fixture
def fresh_table(monkeypatch):
    """The molecule table, emptied for one test and restored after it.

    The table keeps pools, fingerprints and floor survivors for the whole
    process, so a test that counts packed passes, parses or predictor calls
    starts from it to count the same whatever ran before.
    """
    monkeypatch.setattr(table, "_entries", OrderedDict())
    return table


@pytest.fixture(scope="session")
def ions() -> dict[str, str]:
    return load_ions()


@pytest.fixture(scope="session")
def ion_molecules(ions):
    return {name: parse_smiles(smiles) for name, smiles in ions.items()}


@pytest.fixture(scope="session")
def equality_panel():
    """Molecules on which rewritten graph routines must equal their oracles:
    random corpora, the curated and symmetric panels, the ion fixture, and a
    multi-fragment molecule with bracket hydrogens."""
    from genmol import CURATED_SMILES, SYMMETRIC_PANEL, corpus

    mols = [m for seed in range(4) for m in corpus(seed=seed, size=250, max_heavy=24)]
    smiles = [*CURATED_SMILES, *SYMMETRIC_PANEL.values(), *load_ions().values()]
    mols += [parse_smiles(s) for s in smiles + ["CCC.CC.[H][H].C1CC1.C"]]
    return mols
