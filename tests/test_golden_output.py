"""Byte pinning: the sha256 of the stdout of fixed command lines.

Each command line here must print exactly the bytes it printed when its
digest was recorded.  The corpus is every dispatch branch of
``test_cli.test_cross_command_parity`` under each command it supports, in
both formats, plus the README examples (without ``verify --seed 0``, which
is too slow for this test), plus requests with n >= 10, where a word's
``display`` is space-separated, plus ``--n 1 --dims 1``, whose block list
holds no comma and so is not quoted in CSV, plus word and class lists of
several block pairs over a middle block (odd ``--n``, ``--dims`` with a
middle block) and long spliced class lists, plus the SU(8,5) requests of
the ``enum_mix`` benchmark workload, plus every other ``enumerate`` and
``homology`` request that workload can issue (each dimension sequence of
its n = 12 pools), plus the full ``verify`` suite at two seeds with one
sample per sampling case.  A change that alters one
of these outputs on purpose records the new digest here and says why.
"""

import contextlib
import hashlib
import io
import shlex

import pytest

from flagslice import cli

GOLDEN = {
    "enumerate --form slnr --n 6 --format json":
        "8be21279d85a71a1de2935e7a2a67d9d9caae743042ff18f44d32bd1ef74e5e2",
    "enumerate --form slnr --n 6 --format csv":
        "3fc89ce8668e2e6fc14f36f64d3a9b6d7c240820f278347c035cb03ab6d70eea",
    "count --form slnr --n 6 --format json":
        "c7a0f8f411090e99dd50075600f7f90dbdfaa606bcfdbe4f03807775729e4ea0",
    "count --form slnr --n 6 --format csv":
        "930487686fb5cb1a36202b4ba5ada39f455e111ad0ee333281603b90e02085b7",
    "points --form slnr --n 6 --format json":
        "5bcfa0e4bc9b4deeb5b5b75d829a10ffbf78d61cf81c5629c98f9819f053ab2a",
    "points --form slnr --n 6 --format csv":
        "ec9cfbce87c17e7252dbdaee7b075abbf95b5e041c354e65e877bbfdd961d3bd",
    "homology --form slnr --n 6 --format json":
        "c7479e871ca10a5ffc992622ed1f1d27a959a154de2c44ae0e46631c54ee6354",
    "homology --form slnr --n 6 --format csv":
        "4ea824665237ed5b0ab324031012bfdaecd4e235d4672520580caa7dfddcc10e",
    "enumerate --form slnr --n 6 --dims 2,1,1,2 --format json":
        "a3d227d8bd66cce3331a316aa9e7a3327957ae012ab7325f16899163882a296a",
    "enumerate --form slnr --n 6 --dims 2,1,1,2 --format csv":
        "5e589c233c9d062afd987e3ffeef4c3fc0987b82d8c333d5b62489f2897724f4",
    "count --form slnr --n 6 --dims 2,1,1,2 --format json":
        "37244d47033c26a95978dbc57636764b81274c3b063e352ba931a4a02fbcd3e0",
    "count --form slnr --n 6 --dims 2,1,1,2 --format csv":
        "6d9a057799e57b3d58f25a5b1c6fa468ee3be5669a3f1cb2396f4d7823faaa78",
    "homology --form slnr --n 6 --dims 2,1,1,2 --format json":
        "a904187999cac65c0e9cfc8b320c9ee64f31aed2b568623738f7cca7be524300",
    "homology --form slnr --n 6 --dims 2,1,1,2 --format csv":
        "5111c00807db035f2ea7064c2121599873c4ae2d3229ae06516657ad5165c96d",
    "enumerate --form slnr --n 6 --dims 1,2,3 --format json":
        "7d0eba421f3d85a289b078a6e853b675010d7e05fb1d00757ba7e226ca2bd142",
    "enumerate --form slnr --n 6 --dims 1,2,3 --format csv":
        "c8c2cdcdb7ec89dd93ffb858c1d6945fb7d8b6d12e20f695566524af7cf6be4a",
    "count --form slnr --n 6 --dims 1,2,3 --format json":
        "65e3965f1738c35d46bb6d7ed86e6ce7ebf0a5bf5a978155cd84b783985c9077",
    "count --form slnr --n 6 --dims 1,2,3 --format csv":
        "2d7910cbae74842ebd7c8920873472a3108ff92f79aca1cc85d519fe40d82d0d",
    "homology --form slnr --n 6 --dims 1,2,3 --format json":
        "5e83b6d548ad0bb79b6086d1b195974582782ac6c9720db0b0121cc0a43de685",
    "homology --form slnr --n 6 --dims 1,2,3 --format csv":
        "1d760972387e2a1470b96c387fcc7b7db46895cf97b17de2cff105c5c950cf15",
    "enumerate --form slmh --n 8 --format json":
        "7f409b06430db624e026c418412e4ad8e91318b0803f54053cc4c4ff50e80665",
    "enumerate --form slmh --n 8 --format csv":
        "a5c812a94240d123001b5409b1bd9e9feacd32dddea6662ebfe2e8fd578e2ed8",
    "count --form slmh --n 8 --format json":
        "385ffb3065efa6f03fd3a6b0034fa427448b3f5311e377e1eabfff0086c5d6f8",
    "count --form slmh --n 8 --format csv":
        "a3f75107041ef89b782865b60ca1ffb7bccfee47a26bb39e4f1b3cb6fc6fbf9b",
    "points --form slmh --n 8 --format json":
        "e235903f3a13cb9d7149f00590ad39d9a3239166607158c03321db4e7703c58c",
    "points --form slmh --n 8 --format csv":
        "10504895b14bcce84479fe66ef1dbe9f00fa67c369571a4c4e01fabd2fd1b87e",
    "homology --form slmh --n 8 --format json":
        "f4ee207aca5f5ad3fab97fa1ddbc68eb63d4149fddf4c0a0631131ae1dd3e2ee",
    "homology --form slmh --n 8 --format csv":
        "b63e324e2b105ccd32ca32a517da0eb3f0720f49b905972cfe1a140cdb67a01d",
    "enumerate --form slmh --n 8 --dims 2,4,2 --format json":
        "7a767c15a0940a13548702deacce682b5932c75e89fa66e2dc5ce42d9a74d693",
    "enumerate --form slmh --n 8 --dims 2,4,2 --format csv":
        "cfe3ffd069bc75626d479932907c1f42f6c8a515886899f51951cf8f933d694d",
    "count --form slmh --n 8 --dims 2,4,2 --format json":
        "4f7ccc2aae340d80d97afb7a121320d45db04e8e3e56e21186075fc40fe164b4",
    "count --form slmh --n 8 --dims 2,4,2 --format csv":
        "6d9a057799e57b3d58f25a5b1c6fa468ee3be5669a3f1cb2396f4d7823faaa78",
    "points --form slmh --n 8 --dims 2,4,2 --format json":
        "d27099838e6091c8935447ab193031c1b97843b57893650aab867b2192560ed7",
    "points --form slmh --n 8 --dims 2,4,2 --format csv":
        "32cc866c6d87aa5db9ee9c57f44b84b3d9d005c2aa7ffa0ff68d12e633e9bc99",
    "homology --form slmh --n 8 --dims 2,4,2 --format json":
        "8b325df7d9ee98e350d44c7cc91ad502a13e743f319597ec8f9730719fb9b626",
    "homology --form slmh --n 8 --dims 2,4,2 --format csv":
        "ee7d92178cbb86a4792106151fe80fa623922caa869d9d6eb7f8041570a67053",
    "enumerate --form slmh --n 8 --dims 3,5 --format json":
        "adeb82d691674d478e03f5adc9e3c18bf60b1009719a1fb1356e697e27395678",
    "enumerate --form slmh --n 8 --dims 3,5 --format csv":
        "ffdab65810562d9486e63762763fba53960eba6b978a0f5dc88fd6144bbc162d",
    "count --form slmh --n 8 --dims 3,5 --format json":
        "bf02fd37044b0fdb9fc2a4e93371977980d60e54d853aa6ef4f8bcba317cd1d2",
    "count --form slmh --n 8 --dims 3,5 --format csv":
        "2d7910cbae74842ebd7c8920873472a3108ff92f79aca1cc85d519fe40d82d0d",
    "homology --form slmh --n 8 --dims 3,5 --format json":
        "6c5c5f2df39cb83d08bbf4af044e4812f975441d2ea1873647246479982778da",
    "homology --form slmh --n 8 --dims 3,5 --format csv":
        "bce36c1e2e3daf85d67b680457a396fd2dd2045a539503a65c704e5d9bf8c299",
    "enumerate --form supq --p 3 --q 2 --format json":
        "56d39394def7629bb6d2808541df3432237d020ea1180037364564c224b05441",
    "enumerate --form supq --p 3 --q 2 --format csv":
        "6fbbbc7ecd7f70b55ebce748fe6414ef4a0e7599f1db16bd41e5713b6001b3aa",
    "count --form supq --p 3 --q 2 --format json":
        "5033369c369751d097a5466211209475ad49852a410388e588f52def40301f24",
    "count --form supq --p 3 --q 2 --format csv":
        "0f35d3185d0e191c792a1617e9e73401d34fbd29705be97d9245069a809c8ca1",
    "points --form supq --p 3 --q 2 --format json":
        "3d7f7cce55a44fbbc3e1c57b2edc221e9b67b35a89625d1c986a49fd20449862",
    "points --form supq --p 3 --q 2 --format csv":
        "f2ce9784ff1a3b06dc0741e0039ca852d353bb174fd18473ee88c8bd1ba7c1a1",
    "homology --form supq --p 3 --q 2 --format json":
        "7653c4d3574ff37f98e41dff2766280aa4cf8c19fd4f5bcf602ee9034ec6cbcc",
    "homology --form supq --p 3 --q 2 --format csv":
        "f4517f00c3fa403586bc86970d2010c9124dd25a4ce6ed9be2cb85491a277e9f",
    "enumerate --form supq --p 3 --q 2 --orbit +-+-+ --format json":
        "892c20a8dc1e7e584548e1fc7f3488d91ec9b8482c34d870643461b7b3373035",
    "enumerate --form supq --p 3 --q 2 --orbit +-+-+ --format csv":
        "6fbbbc7ecd7f70b55ebce748fe6414ef4a0e7599f1db16bd41e5713b6001b3aa",
    "count --form supq --p 3 --q 2 --orbit +-+-+ --format json":
        "1806d555066ac0c3c1c0db821c59ec41efe272fcf1e6898faea66ea64e5b966f",
    "count --form supq --p 3 --q 2 --orbit +-+-+ --format csv":
        "0f35d3185d0e191c792a1617e9e73401d34fbd29705be97d9245069a809c8ca1",
    "points --form supq --p 3 --q 2 --orbit +-+-+ --format json":
        "8d5877a453429d40a117eac9ab68369454a4f3c3286fd808fef07ccc4456bdd1",
    "points --form supq --p 3 --q 2 --orbit +-+-+ --format csv":
        "0ca8b2aacd9e8aab202bff317984c1924c119e4dddacece20f1b62f436e56a37",
    "homology --form supq --p 3 --q 2 --orbit +-+-+ --format json":
        "298e596bd2bca28ab3f64115c454773742ccd99151f9a5d51c0281363a374022",
    "homology --form supq --p 3 --q 2 --orbit +-+-+ --format csv":
        "a5f1cacfec48d6e1a3484ae453136eceb78a3d4b123a8ce06c6b86d1da5db1fb",
    "enumerate --form supq --p 3 --q 2 --dims 2,3 --orbit=-+-++ --format json":
        "0a4b4b1889ebbe861a262e8ce81b477ccdb48c4f42b9283152f16c748d4c273b",
    "enumerate --form supq --p 3 --q 2 --dims 2,3 --orbit=-+-++ --format csv":
        "f2f3407a4addc87e0fe5bdd946669b3872c30fff36227148a8b6a063a80ab3e7",
    "count --form supq --p 3 --q 2 --dims 2,3 --orbit=-+-++ --format json":
        "051111a819d6aca40a643010d37fa1baac435fa738126f54fdcbbf7399cb9b4b",
    "count --form supq --p 3 --q 2 --dims 2,3 --orbit=-+-++ --format csv":
        "85b0ab672ea0ec4354e4d6a0458b2a69516927156a5a8463a51e6985f7194250",
    "points --form supq --p 3 --q 2 --dims 2,3 --orbit=-+-++ --format json":
        "c77d6a2f8bff06aac22f67c927fa15390cef241ead720a825c0edd23ccd8810b",
    "points --form supq --p 3 --q 2 --dims 2,3 --orbit=-+-++ --format csv":
        "4e61f63adc853d4dbdc6f2b96c198736b6b9167fea60ebba0aa247cb6ad9adb8",
    "homology --form supq --p 3 --q 2 --dims 2,3 --orbit=-+-++ --format json":
        "8d9d684713623c4cbe9b9b9c36d6533c4f3f18a5b5f53ff31094525bd4b806f9",
    "homology --form supq --p 3 --q 2 --dims 2,3 --orbit=-+-++ --format csv":
        "6744ab6a53a23137ee8ddd8d5e17453ccb2f0a0c2d93bc517c079193c8b945f0",
    "enumerate --form slnr --n 6":
        "8be21279d85a71a1de2935e7a2a67d9d9caae743042ff18f44d32bd1ef74e5e2",
    "enumerate --form slmh --n 8":
        "7f409b06430db624e026c418412e4ad8e91318b0803f54053cc4c4ff50e80665",
    "enumerate --form supq --p 3 --q 2":
        "56d39394def7629bb6d2808541df3432237d020ea1180037364564c224b05441",
    "enumerate --form slnr --n 8 --dims 3,3,2":
        "f6eb693ead27a068592c856b6fac2c907864687e80d98d78a2ab601b7caec737",
    "points --form slnr --n 5":
        "30fa4b72cb062e089100e5dd178f8c48a3d88cc6655a5cdb4430911063df261b",
    "points --form supq --p 7 --q 4 --dims 5,6 --orbit '(--)(-)(++)(-)(++++)(+)'":
        "2b3e3937bb1fd96bd9ccd1fb5797540a156a4cccb1f701e5dd1158b945534fc3",
    "points --form supq --p 7 --q 4 --dims 5,6 --orbit 'a=3,1;b=2,5'":
        "f82d2e1f4f450fca2061aa6f6fb38e85e49f43df97802dedbca7cdbabff494b2",
    "count --form slnr --n 10":
        "10bb4ac459b80cd4dc030fe92cccad41a5b1206a5d3da4d5fb8128c17f58e6be",
    "homology --form supq --p 4 --q 2":
        "18792ba0b8e4f181b840c81ef611031827c70d421ee4ebe13239ddf25501e3a6",
    "enumerate --form slnr --n 10 --format json":
        "0e9e5dbc5ff252bc35f3765a0d85905b876d8fb505f7a4dc40b5efe700a8c809",
    "enumerate --form slnr --n 10 --format csv":
        "26daa6dccfc48f18d8dd86e5c808c4fda6234b0f36f132a2682d00980a2876ab",
    "enumerate --form supq --p 6 --q 4 --format json":
        "26fa9d53617be8f4ee2e0f9ca8961f8453b233772909d11f64ccc7fab1ba53b4",
    "enumerate --form supq --p 6 --q 4 --format csv":
        "0409ae24e2a887ddea8239b5d022611050be10144596186f375081749c086f39",
    "homology --form supq --p 6 --q 4 --format json":
        "8f305e39835baac93c9d394a580f36a620015d2df28908c839ceaca12de37e9c",
    "homology --form supq --p 6 --q 4 --format csv":
        "de284b7a5740b4420b66de10780565154b9beacf6527f996cdd0136ddf73b172",
    "enumerate --form slnr --n 12 --dims 1,1,2,4,2,1,1 --format json":
        "ca5af7eb90e98e08a29b34a1d070bdf76b1969e25e658c920bb36feedd0e2c71",
    "enumerate --form slnr --n 12 --dims 1,1,2,4,2,1,1 --format csv":
        "34ecdd9af43855023fcf127ad8a6d5f42ea47956c4c2d8bb996942fd2c80995f",
    "enumerate --form slmh --n 12 --dims 2,2,4,2,2 --format json":
        "448482e0c8e3f825a31de968309628f0e59f1f397f18c4b2aabf7ced2d110a4f",
    "enumerate --form slmh --n 12 --dims 2,2,4,2,2 --format csv":
        "d0f6a19d003ee72016b51ef2ed9d62bbb8fcb737b286867852b963c47e4b6db6",
    "points --form slmh --n 12 --dims 2,2,4,2,2 --format json":
        "43e4c4ae33f2c0227e1c8a7e8192e6b5e5b1fd289ce5b44c893e664151ddc678",
    "points --form slmh --n 12 --dims 2,2,4,2,2 --format csv":
        "33f5ea936bd1c774e0da172b993d5f95fe2d5214ef8edcf1ea74d803bb20995d",
    "enumerate --form slnr --n 1 --dims 1 --format json":
        "4086b30c9d5131e504d4f543b7f33ad296ccea04377955b24ce914c2dc6a34f6",
    "enumerate --form slnr --n 1 --dims 1 --format csv":
        "7416da94b02a450b4885df6f2c5b24ced6ab2be62efaf07126da93c676275b0d",
    "enumerate --form slnr --n 12 --dims 3,3,2,4 --format json":
        "f56a93caf42181a49edee24b4ac24b5374a34bdacfef06c718b7370d81bb6c37",
    "enumerate --form slnr --n 12 --dims 3,3,2,4 --format csv":
        "2dfcb8cf020e9d99d67df94d392bcb52a64ec24e4c572181691be6a91e9ea544",
    "points --form slmh --n 10 --format json":
        "830e9b1a67c0fef3d36f50864a39de17854bce9242cf00551cdbbcca17d32cea",
    "points --form slmh --n 10 --format csv":
        "5709e1f0924f8ec48ad7ef4646e7490c103f212c74d51adf48eabcf834817f0f",
    "enumerate --form slnr --n 11":
        "a280de3b769819825a87d38bc0abdf9213a82125fff2ff2237f7f165bcc7b7a9",
    "enumerate --form slmh --n 12 --dims 2,2,4,2,2":
        "448482e0c8e3f825a31de968309628f0e59f1f397f18c4b2aabf7ced2d110a4f",
    "homology --form supq --p 5 --q 3":
        "e2a36bdbb69917152b03ab9fd508c4828cff03d6275a5911ed76de0e4f889858",
    "homology --form slmh --n 12":
        "32e7e0bd81a5c665bc1c07be54989d560cae3740274c9ae5be7e737b686a074c",
    "enumerate --form supq --p 8 --q 5 --format json":
        "3b504424fed00e82997cc48a5a8bee0a5197ad913fbce446a4ac62dacbd96e06",
    "enumerate --form supq --p 8 --q 5 --format csv":
        "37809d9db60f1ab18de4b6bb4b594f652b0686d9f0db384283fbb01b0b8311ab",
    "homology --form supq --p 8 --q 5":
        "957a3d923ac6a2955d51073256b4bc84e8c672c0e67aee5ce75eb6e6e5b692cd",
    "enumerate --form slnr --n 13":
        "6f0c6987bea39b2307e29a8a11640ec20786d5dfab7ac88a4ea54dface3aa278",
    "enumerate --form slnr --n 12 --format csv":
        "499d8f0459922eb4a5f5d2119f30880320a6b254ca7af13b3ec4d338f3e33c43",
    "enumerate --form slmh --n 14":
        "9803b6411d25bcfc8d7d061177f9e6af6d22387c59eb881e4daaee330a47b1c3",
    "homology --form slnr --n 12":
        "ded5d2b261cd8a5cfb27547fd9b34a086915fa7ebbe06382dc15dd62b7ca85f1",
    "homology --form slmh --n 14":
        "7796f48a889c60c2409a2f019158a1dfceddac815faca209cb8657ccff73bcb9",
    "enumerate --form slnr --n 12 --dims 1,2,3,3,2,1":
        "46af7bbeb90f132a83408de6f5757d53f14e9a484ca56b85e3fc415f42e74ccf",
    "enumerate --form slnr --n 12 --dims 2,2,4,2,2":
        "03265fde3459a9417685a79daa0c426fa1a1e2c39889b6fce56635c6b0a2925c",
    "enumerate --form slnr --n 12 --dims 3,3,3,3":
        "755496c9a21029e5a019c04d3592d8edf7c90a3e15be6380809b06a031a7dcdc",
    "enumerate --form slnr --n 12 --dims 2,2,3,5":
        "78f8c7558bf5423c05c911f8fdd57371a73738f7cc25ca1f91b071499d75bd07",
    "enumerate --form slnr --n 12 --dims 3,3,2,2,2":
        "0a336dae545419395a0c3bb017efb3a84cbd7e62f90e0c8bcba414a26a5f876a",
    "enumerate --form slnr --n 12 --dims 5,4,3":
        "76c5e4848af9708c4f19511f603b70edef58d1995d9e84c9b5ef2cee37b70316",
    "enumerate --form slmh --n 12 --dims 2,2,2,2,2,2":
        "40304da0a0e471df5d08ef6ec212701c7608db080d4dce69ec08564d072fe042",
    "enumerate --form slmh --n 12 --dims 3,3,3,3":
        "b079b7b38dd9b723b241b669ddc02b06063070fbaa51526138cc0a1c6c6222ef",
    "enumerate --form slmh --n 12 --dims 4,2,2,4":
        "8d31c217999844ac8c09289ec23b3d795e53c75dc176d4148cf2fd0039f6dafc",
    "enumerate --form slmh --n 12 --dims 2,2,4,4":
        "48098d26553203b6c1904f105756b41ab36cba1eb0e5ea6d791f8b1bf70f09b9",
    "enumerate --form slmh --n 12 --dims 3,5,4":
        "589c6c3134c7c5a8b5aceafbe5477e5e588e0c3fb3f0b8e271338f16bcd90163",
    "enumerate --form slmh --n 12 --dims 5,4,3":
        "ce677abedb9ccb6310914ea673a17bf50dc7e70ea54f4a1eb280e189512b90ad",
    "homology --form slnr --n 12 --dims 1,1,2,4,2,1,1":
        "6c5fd314c87cc5fcd50abb87b95dda5210377a1bd3bf48556a10c508b5b1ab43",
    "homology --form slnr --n 12 --dims 1,2,3,3,2,1":
        "f71db22ec99ad13acbdfa3f28a25e29f54b33968d8972a3ac03ca607579e2050",
    "homology --form slnr --n 12 --dims 2,2,4,2,2":
        "9b840ece5355b6c0cf8597383a99434502b33a310993a8a4119573a4cb72706c",
    "homology --form slnr --n 12 --dims 3,3,3,3":
        "744e58be4a8466d8cb7ddcfec82665a9e560abb202f7616b86d6e215084d54d9",
    "verify --fast":
        "1ea7d990785af2526c8096030b8e922a9232cbab4fced9142bc886158a3744dd",
    "verify --seed 0 --samples 1":
        "83eeb02c8733c64c250863c425f4c29b52aa52b120e572acaeddcd6f85a3a981",
    "verify --seed 952804 --samples 1":
        "bb9e85858ee5eb0b398438513d87ec9d855d0e98754752d6e8131b5e9ee77577",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_output_bytes_are_pinned(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(shlex.split(command)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[command]
