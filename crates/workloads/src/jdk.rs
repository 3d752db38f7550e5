//! A miniature class library ("mini-JDK") the benchmarks allocate through,
//! mirroring the role `java.util` plays in the paper: nested allocation
//! sites bottom out in library code (`new char[]` inside `java.util.String`
//! etc.), and one of the paper's rewritings (`jess`) edits the JDK itself.
//!
//! Provided classes:
//!
//! * `jdk.Vector` — growable array; its `removeLast` is the §5.2 vector
//!   idiom: the original *leaks* the removed element, the revised variant
//!   nulls the slot.
//! * `jdk.HashTable` — open-addressing int→ref table.
//! * `jdk.Str` — a char-array wrapper (the `java.util.String` stand-in).
//! * `jdk.Locale` — the §5.1 usage-analysis example: static fields holding
//!   pre-allocated locales, most never used; the revised variant does not
//!   allocate them.

use heapdrag_vm::builder::ProgramBuilder;
use heapdrag_vm::class::Visibility;
use heapdrag_vm::ids::{ClassId, MethodId, StaticId};
use heapdrag_vm::value::Value;

use crate::spec::Variant;

/// Ids of everything the mini-JDK installs.
#[derive(Debug, Clone, Copy)]
pub struct Jdk {
    /// `jdk.Vector`.
    pub vector: ClassId,
    /// `Vector.init(this, capacity)`.
    pub vec_init: MethodId,
    /// `Vector.add(this, value)` — grows when full.
    pub vec_add: MethodId,
    /// `Vector.get(this, index) -> value`.
    pub vec_get: MethodId,
    /// `Vector.removeLast(this) -> value` — leaky in the original JDK.
    pub vec_remove_last: MethodId,
    /// `Vector.size(this) -> int`.
    pub vec_size: MethodId,
    /// `jdk.HashTable`.
    pub hashtable: ClassId,
    /// `HashTable.init(this, capacity)`.
    pub ht_init: MethodId,
    /// `HashTable.put(this, key, value)`.
    pub ht_put: MethodId,
    /// `HashTable.get(this, key) -> value|null`.
    pub ht_get: MethodId,
    /// `jdk.Str`.
    pub str_class: ClassId,
    /// `Str.init(this, length)` — allocates the char array.
    pub str_init: MethodId,
    /// `Str.len(this) -> int`.
    pub str_len: MethodId,
    /// `jdk.Locale`.
    pub locale: ClassId,
    /// `Locale.initLocales()` — static initialiser for the locale table.
    pub init_locales: MethodId,
    /// The one locale static the benchmarks actually read.
    pub locale_en: StaticId,
    /// Never-read locale statics (original variant allocates into them).
    pub unused_locales: [StaticId; 3],
}

/// Installs the library into `b`. The `variant` selects the original
/// (leaky `removeLast`, eager locales) or revised JDK.
pub fn install(b: &mut ProgramBuilder, variant: Variant) -> Jdk {
    // ---- Vector ---------------------------------------------------------
    let vector = b
        .begin_class("jdk.Vector")
        .field("elements", Visibility::Private)
        .field("size", Visibility::Private)
        .finish();
    let el = b.field_slot(vector, "elements");
    let sz = b.field_slot(vector, "size");

    let vec_init = b.declare_method("init", Some(vector), false, 2, 2);
    {
        let mut m = b.begin_body(vec_init);
        m.load(0).load(1);
        m.mark("jdk.Vector backing array").new_array().putfield(el);
        m.load(0).push_int(0).putfield(sz);
        m.ret();
        m.finish();
    }
    let vec_add = b.declare_method("add", Some(vector), false, 2, 5);
    {
        // local 2: elements, local 3: grown array, local 4: copy index
        let mut m = b.begin_body(vec_add);
        m.load(0).getfield(el).store(2);
        // grow when size == elements.len
        m.load(0)
            .getfield(sz)
            .load(2)
            .array_len()
            .cmplt()
            .branch("store");
        m.load(2).array_len().push_int(2).mul();
        m.mark("jdk.Vector grown array").new_array().store(3);
        m.push_int(0).store(4);
        m.label("copy");
        m.load(4).load(2).array_len().cmpge().branch("copied");
        // new[i] = old[i]
        m.load(3).load(4);
        m.load(2).load(4).aload();
        m.astore();
        m.load(4).push_int(1).add().store(4);
        m.jump("copy");
        m.label("copied");
        m.load(0).load(3).putfield(el);
        m.load(3).store(2);
        m.label("store");
        // elements[size] = value; size += 1
        m.load(2).load(0).getfield(sz).load(1).astore();
        m.load(0)
            .load(0)
            .getfield(sz)
            .push_int(1)
            .add()
            .putfield(sz);
        m.ret();
        m.finish();
    }
    let vec_get = b.declare_method("get", Some(vector), false, 2, 2);
    {
        let mut m = b.begin_body(vec_get);
        m.load(0).getfield(el).load(1).aload().ret_val();
        m.finish();
    }
    let vec_remove_last = b.declare_method("removeLast", Some(vector), false, 1, 2);
    {
        let mut m = b.begin_body(vec_remove_last);
        // result = elements[size-1]
        m.load(0).getfield(el);
        m.load(0).getfield(sz).push_int(1).sub();
        m.aload().store(1);
        // size = size - 1
        m.load(0)
            .load(0)
            .getfield(sz)
            .push_int(1)
            .sub()
            .putfield(sz);
        if variant == Variant::Revised {
            // elements[size] = null — the paper's jess fix, which the
            // original "tries to handle … but does not handle completely".
            m.load(0).getfield(el);
            m.load(0).getfield(sz);
            m.push_null().astore();
        }
        m.load(1).ret_val();
        m.finish();
    }
    let vec_size = b.declare_method("size", Some(vector), false, 1, 1);
    {
        let mut m = b.begin_body(vec_size);
        m.load(0).getfield(sz).ret_val();
        m.finish();
    }

    // ---- HashTable ------------------------------------------------------
    let hashtable = b
        .begin_class("jdk.HashTable")
        .field("keys", Visibility::Private)
        .field("vals", Visibility::Private)
        .field("cap", Visibility::Private)
        .finish();
    let hk = b.field_slot(hashtable, "keys");
    let hv = b.field_slot(hashtable, "vals");
    let hc = b.field_slot(hashtable, "cap");

    // Keys must be >= 1; slot value 0 marks an empty bucket (the key
    // array is zero-filled here, since fresh array slots hold null).
    let ht_init = b.declare_method("init", Some(hashtable), false, 2, 4);
    {
        // local 2: index, local 3: keys array
        let mut m = b.begin_body(ht_init);
        m.load(1);
        m.mark("jdk.HashTable key array").new_array().store(3);
        m.load(0).load(3).putfield(hk);
        m.load(0).load(1);
        m.mark("jdk.HashTable value array").new_array().putfield(hv);
        m.load(0).load(1).putfield(hc);
        m.push_int(0).store(2);
        m.label("zero");
        m.load(2).load(1).cmpge().branch("done");
        m.load(3).load(2).push_int(0).astore();
        m.load(2).push_int(1).add().store(2);
        m.jump("zero");
        m.label("done");
        m.ret();
        m.finish();
    }
    // put(this, key, value): linear probing; silently drops when the table
    // is full (the workloads keep load factors low).
    let ht_put = b.declare_method("put", Some(hashtable), false, 3, 6);
    {
        // local 3: index, local 4: probes, local 5: keys array
        let mut m = b.begin_body(ht_put);
        m.load(0).getfield(hk).store(5);
        m.load(1).load(0).getfield(hc).rem().store(3);
        m.push_int(0).store(4);
        m.label("probe");
        m.load(4).load(0).getfield(hc).cmpge().branch("full");
        m.load(5)
            .load(3)
            .aload()
            .push_int(0)
            .cmpeq()
            .branch("empty");
        m.load(5)
            .load(3)
            .aload()
            .load(1)
            .cmpeq()
            .branch("overwrite");
        m.load(3)
            .push_int(1)
            .add()
            .load(0)
            .getfield(hc)
            .rem()
            .store(3);
        m.load(4).push_int(1).add().store(4);
        m.jump("probe");
        m.label("empty");
        m.load(5).load(3).load(1).astore();
        m.label("overwrite");
        m.load(0).getfield(hv).load(3).load(2).astore();
        m.label("full");
        m.ret();
        m.finish();
    }
    let ht_get = b.declare_method("get", Some(hashtable), false, 2, 5);
    {
        // local 2: index, local 3: probes, local 4: keys array
        let mut m = b.begin_body(ht_get);
        m.load(0).getfield(hk).store(4);
        m.load(1).load(0).getfield(hc).rem().store(2);
        m.push_int(0).store(3);
        m.label("probe");
        m.load(3).load(0).getfield(hc).cmpge().branch("miss");
        m.load(4).load(2).aload().push_int(0).cmpeq().branch("miss");
        m.load(4).load(2).aload().load(1).cmpeq().branch("hit");
        m.load(2)
            .push_int(1)
            .add()
            .load(0)
            .getfield(hc)
            .rem()
            .store(2);
        m.load(3).push_int(1).add().store(3);
        m.jump("probe");
        m.label("hit");
        m.load(0).getfield(hv).load(2).aload().ret_val();
        m.label("miss");
        m.push_null().ret_val();
        m.finish();
    }

    // ---- Str -------------------------------------------------------------
    let str_class = b
        .begin_class("jdk.Str")
        .field("chars", Visibility::Private)
        .finish();
    let ch = b.field_slot(str_class, "chars");
    let str_init = b.declare_method("init", Some(str_class), false, 2, 2);
    {
        let mut m = b.begin_body(str_init);
        m.load(0).load(1);
        m.mark("jdk.Str char array").new_array().putfield(ch);
        m.ret();
        m.finish();
    }
    let str_len = b.declare_method("len", Some(str_class), false, 1, 1);
    {
        let mut m = b.begin_body(str_len);
        m.load(0).getfield(ch).array_len().ret_val();
        m.finish();
    }

    // ---- Locale -----------------------------------------------------------
    let locale = b
        .begin_class("jdk.Locale")
        .field("code", Visibility::Private)
        .finish();
    let code_slot = b.field_slot(locale, "code");
    let locale_init = b.declare_method("init", Some(locale), false, 2, 2);
    {
        let mut m = b.begin_body(locale_init);
        m.load(0).load(1).putfield(code_slot);
        m.ret();
        m.finish();
    }
    let locale_code = b.declare_method("code", Some(locale), false, 1, 1);
    {
        let mut m = b.begin_body(locale_code);
        m.load(0).getfield(code_slot).ret_val();
        m.finish();
    }
    let locale_en = b.static_var("jdk.Locale.EN", Visibility::Public, Value::Null);
    let locale_fr = b.static_var("jdk.Locale.FR", Visibility::Public, Value::Null);
    let locale_de = b.static_var("jdk.Locale.DE", Visibility::Public, Value::Null);
    let locale_jp = b.static_var("jdk.Locale.JP", Visibility::Public, Value::Null);
    let init_locales = b.declare_method("initLocales", None, true, 0, 1);
    {
        let mut m = b.begin_body(init_locales);
        // EN is genuinely read by the benchmarks.
        m.mark("jdk.Locale EN").new_obj(locale).dup().store(0);
        m.push_int(1).call(locale_init);
        m.load(0).putstatic(locale_en);
        if variant == Variant::Original {
            // The paper's Locale example: "a static variable is declared
            // for every possible locale … those which are never-used can
            // be eliminated." The original eagerly allocates them all.
            for (idx, s) in [(2, locale_fr), (3, locale_de), (4, locale_jp)] {
                m.mark("jdk.Locale never-used")
                    .new_obj(locale)
                    .dup()
                    .store(0);
                m.push_int(idx).call(locale_init);
                m.load(0).putstatic(s);
            }
        }
        m.ret();
        m.finish();
    }
    let _ = locale_code;

    Jdk {
        vector,
        vec_init,
        vec_add,
        vec_get,
        vec_remove_last,
        vec_size,
        hashtable,
        ht_init,
        ht_put,
        ht_get,
        str_class,
        str_init,
        str_len,
        locale,
        init_locales,
        locale_en,
        unused_locales: [locale_fr, locale_de, locale_jp],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heapdrag_vm::interp::{Vm, VmConfig};
    use heapdrag_vm::program::Program;

    fn with_main(
        variant: Variant,
        body: impl FnOnce(&mut ProgramBuilder, &Jdk, MethodId),
    ) -> Program {
        let mut b = ProgramBuilder::new();
        let jdk = install(&mut b, variant);
        let main = b.declare_method("main", None, true, 1, 6);
        body(&mut b, &jdk, main);
        b.set_entry(main);
        b.finish().unwrap()
    }

    fn run(p: &Program) -> Vec<i64> {
        Vm::new(p, VmConfig::default()).run(&[]).unwrap().output
    }

    #[test]
    fn vector_add_get_grow() {
        let p = with_main(Variant::Original, |b, jdk, main| {
            let mut m = b.begin_body(main);
            m.new_obj(jdk.vector).dup().store(1);
            m.push_int(2).call(jdk.vec_init); // tiny capacity → forces growth
            for i in 0..5 {
                m.load(1).push_int(i * 10).call(jdk.vec_add);
            }
            m.load(1).call(jdk.vec_size); // wait, vec_size is direct-callable
            m.print();
            for i in 0..5 {
                m.load(1).push_int(i).call(jdk.vec_get).print();
            }
            m.ret();
            m.finish();
        });
        assert_eq!(run(&p), vec![5, 0, 10, 20, 30, 40]);
    }

    #[test]
    fn vector_remove_last_leaks_or_nulls() {
        // Behavioural equivalence: both variants return the same element.
        for variant in [Variant::Original, Variant::Revised] {
            let p = with_main(variant, |b, jdk, main| {
                let mut m = b.begin_body(main);
                m.new_obj(jdk.vector).dup().store(1);
                m.push_int(4).call(jdk.vec_init);
                m.load(1).push_int(7).call(jdk.vec_add);
                m.load(1).push_int(9).call(jdk.vec_add);
                m.load(1).call(jdk.vec_remove_last).print();
                m.load(1).call(jdk.vec_size).print();
                m.ret();
                m.finish();
            });
            assert_eq!(run(&p), vec![9, 1], "{variant:?}");
        }
    }

    #[test]
    fn original_remove_last_is_the_leaky_idiom() {
        let p = with_main(Variant::Original, |b, _jdk, main| {
            let mut m = b.begin_body(main);
            m.ret();
            m.finish();
        });
        let leaks = heapdrag_analysis::find_vector_leaks(&p);
        assert!(
            leaks
                .iter()
                .any(|l| p.classes[l.class.index()].name == "jdk.Vector"),
            "analysis flags the original removeLast, found {leaks:?}"
        );
        let fixed = with_main(Variant::Revised, |b, _jdk, main| {
            let mut m = b.begin_body(main);
            m.ret();
            m.finish();
        });
        let leaks = heapdrag_analysis::find_vector_leaks(&fixed);
        assert!(
            !leaks
                .iter()
                .any(|l| fixed.classes[l.class.index()].name == "jdk.Vector"),
            "revised removeLast nulls the slot"
        );
    }

    #[test]
    fn hashtable_put_get() {
        let p = with_main(Variant::Original, |b, jdk, main| {
            let mut m = b.begin_body(main);
            m.new_obj(jdk.hashtable).dup().store(1);
            m.push_int(8).call(jdk.ht_init);
            // Store Str objects under keys 3, 11 (collide mod 8), 5.
            for key in [3, 11, 5] {
                m.new_obj(jdk.str_class).dup().store(2);
                m.push_int(key).call(jdk.str_init); // length = key (arbitrary)
                m.load(1).push_int(key).load(2).call(jdk.ht_put);
            }
            for key in [3, 11, 5] {
                m.load(1).push_int(key).call(jdk.ht_get);
                m.call_virtual("len", 0).print();
            }
            // A miss returns null.
            m.load(1).push_int(99).call(jdk.ht_get);
            m.branch_if_null("was_null");
            m.push_int(-1).print();
            m.jump("done");
            m.label("was_null");
            m.push_int(-2).print();
            m.label("done");
            m.ret();
            m.finish();
        });
        assert_eq!(run(&p), vec![3, 11, 5, -2]);
    }

    #[test]
    fn locales_eager_vs_trimmed() {
        let build = |variant| {
            with_main(variant, |b, jdk, main| {
                let mut m = b.begin_body(main);
                m.call(jdk.init_locales);
                m.getstatic(jdk.locale_en).call_virtual("code", 0).print();
                m.ret();
                m.finish();
            })
        };
        let original = build(Variant::Original);
        let revised = build(Variant::Revised);
        let o1 = Vm::new(&original, VmConfig::default()).run(&[]).unwrap();
        let o2 = Vm::new(&revised, VmConfig::default()).run(&[]).unwrap();
        assert_eq!(o1.output, o2.output);
        assert_eq!(o1.output, vec![1]);
        assert_eq!(
            o1.heap.allocated_objects - o2.heap.allocated_objects,
            3,
            "three never-used locales trimmed"
        );
    }
}
