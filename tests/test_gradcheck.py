"""Finite-difference audit harness."""

from cral.gradcheck import (
    TOY_CONFIG,
    build_terms,
    check_term,
    run_suite,
    suite_passes,
    toy_setup,
)


def test_toy_setup_shapes():
    model, batch = toy_setup(seed=0)
    assert model.config == TOY_CONFIG
    assert batch.num_domains == 2
    assert batch.labeled_x[0].shape == (2, 6)
    assert batch.unlabeled_x[1].shape == (2, 6)


def test_every_term_is_checked():
    model, batch = toy_setup(seed=0)
    names = [name for name, _, _ in build_terms(model, batch)]
    assert names == [
        "l_c_b1", "l_adv_b1", "l_e_b1", "l_uvt_b1", "l_lvt_b1",
        "l_c_b2", "l_adv_b2", "l_e_b2", "l_uvt_b2", "l_lvt_b2",
        "l_d", "l_div",
    ]


def test_each_term_checks_the_parameters_on_its_tape():
    model, batch = toy_setup(seed=0)
    builders = {name: (builder, b) for name, builder, b in build_terms(model, batch)}
    # Branch 1's arrays of the stacked shared extractor and discriminator.
    size = sum(p.value[0].size for p in model.shared.params() + model.discriminator.params())
    assert check_term(*builders["l_adv_b1"])["checked"] == size


def test_suite_matches_central_differences():
    report = run_suite(seed=0)
    assert suite_passes(report)
    for name, entry in report.items():
        assert entry["fraction_ok"] == 1.0, name
        assert entry["max_rel_err"] < 1e-4, name
        assert entry["checked"] > 0


def test_suite_passes_rejects_low_fraction():
    report = {"l_c_b1": {"checked": 100, "max_rel_err": 1.0,
                         "fraction_ok": 0.5}}
    assert not suite_passes(report)
