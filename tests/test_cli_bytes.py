"""Every command's stdout, stderr and exit code in each output format,
through cli.main in process.  The argv are README's command-line
examples, plus an empty exceptional list and a domain error.  A short
stdout is pinned as a literal, a long one by its SHA-256.  verify-paper
runs a stubbed battery of two criteria, one failing, as in
tests/test_cli.py."""

import hashlib

import pytest

import osculant.cli as cli
from osculant import CriterionResult

ARGV = {
    "intersect": ("intersect", "e*(So) - s0 - r0", "K"),
    "genus": ("genus", "e*(4*Co + 3*So) - s0 - 3*r0 - 2*r1 - 2*r2 - 2*r3"),
    "lambda": ("lambda", "4", "2", "1", "3,2,2,2"),
    "decompose": ("decompose", "3,2,2,2", "2"),
    "nef": ("nef", "4", "2", "3,2,2,2", "--mode", "both"),
    "nef-not-nef": ("nef", "6", "3", "7,2,0,0"),
    "minimizer": ("minimizer", "4", "2", "3,2,2,2"),
    "zdiv": ("zdiv", "4", "2", "3,2,2,2"),
    "dims": ("dims", "4", "2", "3,2,2,2"),
    "exceptional": ("exceptional", "--max-sq", "3"),
    "catalog": ("catalog", "--char-p", "3"),
    "family-nef": ("family-nef", "2", "0", "1,0,0,0"),
    "family-nonnef": ("family-nonnef", "3", "1,0,0,0", "--bound", "2"),
    "kit": ("kit", "2", "1,0,0,0"),
    "census": ("census", "--n-max", "6", "--d-max", "3", "--gamma-max", "15"),
    "verify-paper": ("verify-paper",),
    "exceptional-empty": ("exceptional", "--max-sq", "-1"),
    "domain-error": ("nef", "4", "2", "3,2,2"),
}

# every other command exits 0 with an empty stderr
EXIT = {
    "verify-paper": (3, ""),
    "domain-error": (1, "error: [vec-length] expected 4 coordinates, got 3\n"),
}

# "<name> <output>": the whole stdout
STDOUT = {
    "intersect csv":
        "left,e*(So) - s0 - r0\n"
        "right,e*(-2*Co) + s0 + s1 + s2 + s3 + r0 + r1 + r2 + r3\nvalue,0\n",
    "intersect text":
        'left: "e*(So) - s0 - r0"\n'
        'right: "e*(-2*Co) + s0 + s1 + s2 + s3 + r0 + r1 + r2 + r3"\n'
        "value: 0\n",
    "genus csv":
        "class,e*(4*Co + 3*So) - s0 - 3*r0 - 2*r1 - 2*r2 - 2*r3\n"
        "self_intersection,2\nvalue,4\n",
    "genus text":
        'class: "e*(4*Co + 3*So) - s0 - 3*r0 - 2*r1 - 2*r2 - 2*r3"\n'
        "self_intersection: 2\nvalue: 4\n",
    "decompose csv":
        "gamma,3;2;2;2\nd,2\nmu,1;0;0;0\neps,0;1;1;1\nnat_mu,2;1;1;1\n"
        "flat_mu_set,1;0;1;1;1;1;0;1;1;1;1;0\n",
    "zdiv csv":
        "components,alpha=1;0;1;1;a=1;k=1;alpha=1;1;0;1;a=1;k=2;"
        "alpha=1;1;1;0;a=1;k=3\nanomalies,\n",
    "dims json":
        '{\n  "dim_lambda": 2,\n  "dim_lambda_minus_co": 0,\n'
        '  "dim_moduli": 1\n}\n',
    "dims csv": "dim_lambda,2\ndim_lambda_minus_co,0\ndim_moduli,1\n",
    "dims text": "dim_lambda: 2\ndim_lambda_minus_co: 0\ndim_moduli: 1\n",
    "family-nef csv": "n,gamma,eps\n4,3;2;2;2,0;1;1;1\n",
    "family-nef text":
        '{"eps": [0, 1, 1, 1], "gamma": [3, 2, 2, 2], "n": 4}\n',
    "verify-paper csv": "PASS  a: ok\nFAIL  b: broken\n1/2 criteria passed\n",
    "verify-paper text": "PASS  a: ok\nFAIL  b: broken\n1/2 criteria passed\n",
    "exceptional-empty json": "[]\n",
    "exceptional-empty csv": "",
    "exceptional-empty text": "",
    "domain-error json": "",
    "domain-error csv": "",
    "domain-error text": "",
}

# "<name> <output>": the SHA-256 of a long stdout
SHA256 = {
    "intersect json":
        "f04c96cdfb6470fb639341f5c49b40fd4577ff1241ff482810ad0f5a0b7a3f57",
    "genus json":
        "644f912f1b8d31d6efd0e1a14bca2e3a3da5200732827fee1d64f5357bba5955",
    "lambda json":
        "c1639b736e17e9556e9b9dfc3edd6c9626bf5ec151209c95e7daa10620748faf",
    "lambda csv":
        "bce5be22763b0f738094454ea43e31c63c79cd19053cdd9216910875f257e28a",
    "lambda text":
        "28038b49f6edf613ecd33af4c9e021e640684d28556354f1090fe7e177c3c9ba",
    "decompose json":
        "adcc3ad78b38424f8972089e9968571177a7787bc613b775aa188c401a30b080",
    "decompose text":
        "6cd5442e45e24c963e82bb50e20f9b3ba4b350b62616be28b91a887c3894814f",
    "nef json":
        "34b463c24451ceeaecb048448914293b0e9bcff525a75f9bca1bbdce11db94c0",
    "nef csv":
        "28a3f98f47770edba1e2f603e7dc0f860bc385cdff4f62aada12265d9f8670be",
    "nef text":
        "f49c1e874735a7c23b12910a4b194ce90e1b7d5ede3dedc1526fc317a031151d",
    "nef-not-nef json":
        "ddf074646c7daed1b6464107cf6315950a09c3a099e3caa9052a6026bde7be5f",
    "nef-not-nef csv":
        "338c3917567f07013c86b588a90af2e478e90e02fbcec02388a46fbc158e412b",
    "nef-not-nef text":
        "d096937afc87cdafb12a355af2d282d04f223d17ce80cece6fab99a729970642",
    "minimizer json":
        "92baaa4738ff44d677e850b9459b1e94f1e72d2a6d250d5290b63121c7c6a0f4",
    "minimizer csv":
        "465cd47a6eaaa447951b43509752a8319adcce8d7af6a41cd23a2d5481ff841e",
    "minimizer text":
        "6e6ab8d6e162df84ce3d8a9cf5b077f30897520224dafb8e488450eb835d7c0e",
    "zdiv json":
        "fad5fc272ec4f736df1d4605c608249f4762532df668e7fd51ffc2bd72fc5cde",
    "zdiv text":
        "1914db3f496f3c6050d86756864ade66655da588c0a5c4a1f77cb839e68b710e",
    "exceptional json":
        "a1e58354f833b0b2de7d2e18537442110daa10caec68bf634aba08fd27fb30ba",
    "exceptional csv":
        "b3e7d846a29d79d6c6225dbbff21bff62ac41ed66201bd01cc0af31f22bdb064",
    "exceptional text":
        "a5a8136c9907e1f3a9f5db9771b89ddb0df96da49c60862e94b0cafc8bee56eb",
    "catalog json":
        "baeaa697faaa0a33862728ec83dd4990eee449ea29f553edb17dca44a058bc9f",
    "catalog csv":
        "71c661a7b0ed7c8702f85b637c3b7d4dec78adba56c7202b19e914f4957a0b47",
    "catalog text":
        "9a9be5647603b9e672edf6c5ae19c85c5cf0383655138f5fa307bba5b40961d5",
    "family-nef json":
        "40a6545f2d1e6400b56cbfd86ca5213bf0dc765584f7702097b7912ca2d0271f",
    "family-nonnef json":
        "f0616443374f0bcb5f0f4a3689eba90bde4ddf30e9df65fdea395137945993e8",
    "family-nonnef csv":
        "5ee7d67cd376e7dc111f1f369fb949cbf758b97827bea3b478c0ffa5796067ea",
    "family-nonnef text":
        "f97044d0f10bf150549c829cd7423283d27a60d4572b213f55d72a5430b87288",
    "kit json":
        "9ab6770bab1e903646c5a44b1e7f9facd0337ffa1d5eefb8bdf2ce07a761a4a9",
    "kit csv":
        "f9e7b4b88c8c8f5ba55d2b2f379c93d793309a26a98d34e462c18560a64b4345",
    "kit text":
        "18607dadcf93bba66c54629681aa2ffe674d3eba57c73d7dc681db537be6f9ef",
    "census json":
        "7f03ad87b1d9c3557ef8abdc80e561948f029f0ede8101c8205047713a586e61",
    "census csv":
        "11317ebbacb32301cc9f7a60a3caa53e531a96dd2cad1d0458f53ce8800cbff9",
    "census text":
        "11317ebbacb32301cc9f7a60a3caa53e531a96dd2cad1d0458f53ce8800cbff9",
    "verify-paper json":
        "8342251eb792f48558e2b56c1d9475be71bab33c7b949bd9c4141fd0593962b8",
}


def _battery(seed=0, pair_reading="factored"):
    return [CriterionResult("a", True, "ok"),
            CriterionResult("b", False, "broken")]


@pytest.mark.parametrize("output", ["json", "csv", "text"])
@pytest.mark.parametrize("name", list(ARGV))
def test_command_bytes(capsys, monkeypatch, name, output):
    monkeypatch.setattr(cli.verify, "run_all", _battery)
    code = cli.main([*ARGV[name], "--output", output])
    got = capsys.readouterr()
    assert (code, got.err) == EXIT.get(name, (0, ""))
    key = f"{name} {output}"
    if key in STDOUT:
        assert got.out == STDOUT[key]
    else:
        assert hashlib.sha256(got.out.encode()).hexdigest() == SHA256[key]
