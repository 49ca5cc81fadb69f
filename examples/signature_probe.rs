//! Prints Trojan signatures for template keys and the test key.
use psa_core::acquisition::AcqContext;
use psa_core::chip::TestChip;
use psa_core::identify::acquire_signature;
use psa_core::scenario::Scenario;
use psa_gatesim::trojan::TrojanKind;

fn main() {
    let chip = TestChip::date24();
    let mut ctx = AcqContext::new(&chip);
    let keys: [(&str, [u8; 16], u64); 2] = [
        ("ref0", [0x81; 16], 0xBEEF),
        ("test", Scenario::DEFAULT_KEY, 101),
    ];
    for kind in TrojanKind::ALL {
        for (name, key, seed) in keys {
            let scen = Scenario::trojan_active(kind).with_key(key).with_seed(seed);
            let base = Scenario::baseline().with_key(key).with_seed(seed);
            let sig = acquire_signature(&mut ctx, &scen, &base, 10, 48.0e6).unwrap();
            let v: Vec<String> = sig.to_vec().iter().map(|x| format!("{x:8.3}")).collect();
            println!("{kind} {name}: [{}]", v.join(", "));
        }
    }
    println!("features: modF(MHz) modProm(dB) lfFrac period(us) periodicity depth kurt telegraph satOff(MHz) pedW(MHz)");
}
